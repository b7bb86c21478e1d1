package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	topk "repro"
)

// response is the part of the service's QueryResponse the benchmark reads.
type response struct {
	Items []struct {
		Object int     `json:"object"`
		Score  float64 `json:"score"`
	} `json:"items"`
	Cost      float64  `json:"cost"`
	Truncated bool     `json:"truncated"`
	Degraded  []string `json:"degraded"`
	Cursor    string   `json:"cursor"`
	Trace     *struct {
		Phases []phase `json:"phases"`
	} `json:"trace"`
}

// phase is one server-side phase timing of a ?trace=1 response.
type phase struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// sample is one finished operation as its client saw it.
type sample struct {
	op     op
	start  time.Time
	dur    time.Duration   // the whole operation: every call of a session
	calls  []time.Duration // per HTTP call: open, next, next, close for a session
	items  []topk.Item     // the answer, pages concatenated
	cost   float64         // billed cost, cumulative for a session
	phases []phase         // server phases, when traced
	fail   string          // why the operation failed; "" if it did not
}

// caller is the closed-loop client: one keep-alive connection, the next
// operation sent when the previous one has returned.
type caller struct {
	base   string
	traced bool
	httpc  *http.Client
	buf    bytes.Buffer
}

func newCaller(base string, traced bool) *caller {
	return &caller{base: base, traced: traced, httpc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}}
}

// post sends one request and decodes the reply. The returned duration ends
// when the body has been read, before it is decoded.
func (c *caller) post(ctx context.Context, path string, payload any, into *response) (time.Duration, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	if c.traced {
		path += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, c.buf.Bytes())
	}
	*into = response{}
	return dur, json.Unmarshal(c.buf.Bytes(), into)
}

type queryBody struct {
	SQL    string `json:"sql"`
	Cursor bool   `json:"cursor,omitempty"`
}

type nextBody struct {
	Cursor string `json:"cursor"`
	K      int    `json:"k,omitempty"`
	Close  bool   `json:"close,omitempty"`
}

// do runs one operation to completion. A transport error, a non-200, a
// truncated or degraded answer all fail it; answers are compared with the
// oracle later, outside the timed section.
func (c *caller) do(ctx context.Context, p op) sample {
	s := sample{op: p, start: time.Now()}
	var r response
	call := func(path string, payload any) bool {
		d, err := c.post(ctx, path, payload, &r)
		switch {
		case err != nil:
			s.fail = err.Error()
		case r.Truncated:
			s.fail = "truncated answer"
		case len(r.Degraded) > 0:
			s.fail = fmt.Sprint("degraded answer: ", r.Degraded)
		}
		if s.fail != "" {
			return false
		}
		s.calls = append(s.calls, d)
		for _, it := range r.Items {
			s.items = append(s.items, topk.Item{Obj: it.Object, Score: it.Score})
		}
		if r.Trace != nil {
			s.phases = r.Trace.Phases
		}
		return true
	}
	if p.weights == nil {
		if call("/query", queryBody{SQL: p.sql}) {
			s.cost = r.Cost
		}
	} else if call("/query", queryBody{SQL: p.sql, Cursor: true}) {
		id := r.Cursor
		ok := true
		for page := 1; ok && page < sessionPages; page++ {
			ok = call("/query/next", nextBody{Cursor: id, K: sessionK})
		}
		if ok {
			s.cost = r.Cost // cumulative, so the last page carries the bill
			call("/query/next", nextBody{Cursor: id, Close: true})
		}
	}
	s.dur = time.Since(s.start)
	return s
}

// closedLoop drives base with one caller. It issues whole passes of the
// operation stream and stops at the first pass boundary where it has done at
// least minPasses and run for at least minTime. The stream persists across
// phases, so warm-up and timed phase never replay the same session weights.
func closedLoop(ctx context.Context, base string, traced bool, st *opStream, minPasses int, minTime time.Duration) (samples []sample, elapsed time.Duration) {
	c := newCaller(base, traced)
	defer c.httpc.CloseIdleConnections()
	start := time.Now()
	for passes := 0; (passes < minPasses || time.Since(start) < minTime) && ctx.Err() == nil; passes++ {
		for range st.w.passLen() {
			samples = append(samples, c.do(ctx, st.next()))
		}
	}
	return samples, time.Since(start)
}

// verify compares every sample with the oracle and marks mismatches failed:
// ids exactly, scores to 1e-12.
func verify(o *oracles, samples []sample) error {
	for i := range samples {
		s := &samples[i]
		if s.fail != "" {
			continue
		}
		want, err := o.expected(s.op)
		if err != nil {
			return err
		}
		if len(s.items) != len(want) {
			s.fail = fmt.Sprintf("%d items, oracle has %d", len(s.items), len(want))
			continue
		}
		for r, it := range s.items {
			if it.Obj != want[r].Obj || math.Abs(it.Score-want[r].Score) > 1e-12 {
				s.fail = fmt.Sprintf("rank %d is u%d (%.15g), oracle has u%d (%.15g)", r, it.Obj, it.Score, want[r].Obj, want[r].Score)
				break
			}
		}
	}
	return nil
}
