package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readSet loads a results.json as written by a run of every workload.
func readSet(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all resultSet
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := map[string]*result{}
	for _, r := range all.Results {
		if !r.Traced {
			set[r.Workload] = r
		}
	}
	return set, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets lists every (workload, end-to-end metric) pair with its
// relative difference and returns the pairs beyond their bound, plus
// every fingerprint or failure count that differs when the seeds match.
func compareSets(a, b map[string]*result) (rows, violations []string) {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb == nil {
			violations = append(violations, fmt.Sprintf("%s: missing from the second set", name))
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			w := worsening(d, va, vb)
			row := fmt.Sprintf("%-12s %-12s %14.6g %14.6g %+8.2f%%  bound %.0f%%", name, d.Name, va, vb, 100*w, 100*d.Bound)
			if w > d.Bound {
				row += "  BEYOND"
				violations = append(violations, fmt.Sprintf("%s %s: %.6g -> %.6g is %.1f%% worse, bound %.0f%%", name, d.Name, va, vb, 100*w, 100*d.Bound))
			}
			rows = append(rows, row)
		}
		if ra.Failed != rb.Failed {
			violations = append(violations, fmt.Sprintf("%s: failed operations %d vs %d", name, ra.Failed, rb.Failed))
		}
		if ra.Seed != rb.Seed {
			continue // different inputs: nothing has to repeat exactly
		}
		for key, va := range ra.Fingerprint {
			if vb := rb.Fingerprint[key]; va != vb {
				violations = append(violations, fmt.Sprintf("%s: fingerprint %s is %s vs %s", name, key, va, vb))
			}
		}
	}
	return rows, violations
}

// compareFiles is -compare: it prints the table and fails when any pair
// is beyond its bound.
func compareFiles(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	rows, violations := compareSets(a, b)
	fmt.Printf("%-12s %-12s %14s %14s %9s\n", "workload", "metric", pathA, pathB, "worse by")
	for _, row := range rows {
		fmt.Println(row)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("VIOLATION:", v)
		}
		return fmt.Errorf("%d pairs beyond their bound", len(violations))
	}
	return nil
}
