package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// VerifyShape checks a generated table against the paper's qualitative
// claim for that experiment — the "expected shape" its notes describe. It
// returns nil when the shape holds, and a descriptive error otherwise, so
// `topkbench -verify` lets anyone confirm the reproduction on their own
// machine (shapes are asserted with slack; absolute numbers never are).
// Experiments without a mechanical shape check (the contour prints E1/E2,
// whose claims E3 covers) verify trivially.
func VerifyShape(t *Table) error {
	switch t.ID {
	case "E3":
		// min rows must beat TA; symmetric avg near parity; high cost
		// ratios must save at least 40%.
		for _, row := range t.Rows {
			f, ratio, rel := row[0], row[1], row[5]
			p, err := parsePct(rel)
			if err != nil {
				return err
			}
			switch {
			case f == "min" && p >= 100:
				return fmt.Errorf("E3: min row (cr/cs=%s) at %s, want < 100%%", ratio, rel)
			case ratio == "100" && p > 60:
				return fmt.Errorf("E3: cr/cs=100 row at %s, want <= 60%%", rel)
			case f == "avg" && ratio == "1" && p > 115:
				return fmt.Errorf("E3: symmetric avg row at %s, want near parity", rel)
			}
		}
	case "E4":
		// NC at most ~equal to every specialist (105% slack for noise).
		for _, row := range t.Rows {
			p, err := parsePct(row[4])
			if err != nil {
				return err
			}
			if p > 105 {
				return fmt.Errorf("E4: NC at %s of %s in %s", row[4], row[1], row[0])
			}
		}
	case "E5":
		// Q1: optimized NC strictly below every applicable baseline.
		for _, row := range t.Rows {
			if row[0] != "Q1 (min)" || row[1] == "n/a" {
				continue
			}
			if strings.HasPrefix(row[1], "NC-Opt") {
				p, err := parsePct(row[3])
				if err != nil {
					return err
				}
				if p > 100 {
					return fmt.Errorf("E5: Q1 NC at %s of the best baseline", row[3])
				}
			}
		}
	case "E6":
		// Naive must spend strictly more estimator runs than HClimb on
		// every scenario it plans, at no better realized cost. The warm
		// start must spend fewer runs than cold HClimb at every drift, and
		// realize cold HClimb's cost within 1% at every drift up to the plan
		// cache's neighbour radius, 0.05.
		runs := map[string]map[string]float64{}
		costs := map[string]map[string]float64{}
		for _, row := range t.Rows {
			scn, scheme := row[0], row[1]
			r, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				return fmt.Errorf("E6: bad runs %q", row[4])
			}
			c, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return fmt.Errorf("E6: bad cost %q", row[3])
			}
			if runs[scn] == nil {
				runs[scn] = map[string]float64{}
				costs[scn] = map[string]float64{}
			}
			runs[scn][scheme] = r
			costs[scn][scheme] = c
		}
		for scn := range runs {
			if naive, ok := runs[scn]["Naive"]; ok {
				if naive <= runs[scn]["HClimb"] {
					return fmt.Errorf("E6: %s: Naive ran %v estimates vs HClimb %v", scn, naive, runs[scn]["HClimb"])
				}
				if costs[scn]["HClimb"] > 1.25*costs[scn]["Naive"] {
					return fmt.Errorf("E6: %s: HClimb realized cost %v too far above Naive %v", scn, costs[scn]["HClimb"], costs[scn]["Naive"])
				}
			}
			if warm, ok := runs[scn]["HClimb warm"]; ok {
				if warm >= runs[scn]["HClimb"] {
					return fmt.Errorf("E6: %s: the warm start ran %v estimates vs cold HClimb %v", scn, warm, runs[scn]["HClimb"])
				}
				_, ds, _ := strings.Cut(scn, "d=")
				d, err := strconv.ParseFloat(ds, 64)
				if err != nil {
					return fmt.Errorf("E6: %s: no drift in the scenario name", scn)
				}
				if d <= 0.05 && costs[scn]["HClimb warm"] > 1.01*costs[scn]["HClimb"] {
					return fmt.Errorf("E6: %s: the warm start realized %v vs cold HClimb %v", scn, costs[scn]["HClimb warm"], costs[scn]["HClimb"])
				}
			}
		}
	case "E7":
		// Highest B must show meaningful speedup at bounded cost overhead.
		last := t.Rows[len(t.Rows)-1]
		speedup, err := strconv.ParseFloat(strings.TrimSuffix(last[3], "x"), 64)
		if err != nil {
			return fmt.Errorf("E7: bad speedup %q", last[3])
		}
		overhead, err := parsePct(last[4])
		if err != nil {
			return err
		}
		if speedup < 2 {
			return fmt.Errorf("E7: top speedup %.2fx, want >= 2x", speedup)
		}
		if overhead > 150 {
			return fmt.Errorf("E7: cost overhead %s, want <= 150%%", last[4])
		}
	case "E8":
		// Random-first must be strictly worse than SR/G.
		for _, row := range t.Rows {
			if row[1] == "random-first" {
				p, err := parsePct(row[3])
				if err != nil {
					return err
				}
				if p <= 100 {
					return fmt.Errorf("E8: random-first at %s, want > 100%%", row[3])
				}
			}
		}
	case "E9":
		// Every sweep point: NC below TA.
		for _, row := range t.Rows {
			p, err := parsePct(row[4])
			if err != nil {
				return err
			}
			if p >= 100 {
				return fmt.Errorf("E9: %s=%s at %s, want < 100%%", row[0], row[1], row[4])
			}
		}
	case "E10":
		// TA must cost a multiple of the adaptive run.
		for _, row := range t.Rows {
			if row[0] == "TA" {
				p, err := parsePct(row[2])
				if err != nil {
					return err
				}
				if p < 150 {
					return fmt.Errorf("E10: TA at %s of adaptive, want >= 150%%", row[2])
				}
			}
		}
	case "E11":
		// Cost non-increasing down each scenario's epsilon column.
		prev := map[string]float64{}
		for _, row := range t.Rows {
			c, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				return fmt.Errorf("E11: bad cost %q", row[2])
			}
			if last, ok := prev[row[0]]; ok && c > last+1e-9 {
				return fmt.Errorf("E11: %s: cost rose to %v at eps=%s", row[0], c, row[1])
			}
			prev[row[0]] = c
		}
	}
	return nil
}

// parsePct parses "93%" into 93.
func parsePct(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bench: cannot parse percentage %q", s)
	}
	return v, nil
}
