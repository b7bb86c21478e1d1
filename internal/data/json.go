package data

import (
	"encoding/json"
	"fmt"
	"io"
)

// datasetJSON is the on-disk representation of a dataset: explicit enough
// to be hand-authored, validated on load exactly like New.
type datasetJSON struct {
	Name   string      `json:"name"`
	Scores [][]float64 `json:"scores"`
	Labels []string    `json:"labels,omitempty"`
}

// WriteJSON serializes the dataset.
func (d *Dataset) WriteJSON(w io.Writer) error {
	payload := datasetJSON{Name: d.name, Scores: d.scores}
	if d.cols != nil {
		// A projection serializes as the matrix it presents, not its parent's.
		payload.Scores = make([][]float64, d.N())
		for u := range payload.Scores {
			payload.Scores[u] = d.Scores(u)
		}
	}
	if d.labels != nil {
		payload.Labels = d.labels
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(payload); err != nil {
		return fmt.Errorf("data: encoding dataset %q: %w", d.name, err)
	}
	return nil
}

// ReadJSON loads a dataset serialized by WriteJSON (or hand-written in the
// same shape), applying full validation.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var payload datasetJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&payload); err != nil {
		return nil, fmt.Errorf("data: decoding dataset: %w", err)
	}
	ds, err := New(payload.Name, payload.Scores)
	if err != nil {
		return nil, err
	}
	if payload.Labels != nil {
		if len(payload.Labels) > ds.N() {
			return nil, fmt.Errorf("data: dataset %q has %d labels for %d objects", payload.Name, len(payload.Labels), ds.N())
		}
		ds.SetLabels(payload.Labels)
	}
	return ds, nil
}
