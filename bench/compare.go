package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so -compare works from the repository root and from bench/.
func loadSpec() (*spec, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

// loadRuns reads every -out result under dir: workload -> metric -> values.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return nil
		}
		if !r.Correct {
			return fmt.Errorf("%s: run failed its correctness checks", path)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.EndToEnd {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
		return nil
	})
	return runs, err
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), so spreads read the same here as in any script.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges B against A for one metric. worse is B's median change
// against A's, signed so that positive is worse; spread is the wider of
// the two sides' interquartile ranges relative to their medians.
func verdict(a, b []float64, better string, bound float64) (worse, spread float64, v string) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse = ratio(bm-am, am)
	if better == "higher" {
		worse = -worse
	}
	spread = max(ratio(a3-a1, am), ratio(b3-b1, bm))
	switch {
	case spread > bound && allBetter(a, b, better):
		return worse, spread, "ok"
	case spread > bound:
		return worse, spread, "unresolved"
	case worse > bound:
		return worse, spread, "regressed"
	}
	return worse, spread, "ok"
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: -compare needs BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadRuns(dirA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(dirB); err == nil {
			return printComparison(s, a, b, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func printComparison(s *spec, a, b map[string]map[string][]float64, stdout, stderr io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-10s %-16s %34s %34s %8s %7s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		if a[wl.name] == nil && b[wl.name] == nil {
			continue
		}
		for _, m := range s.EndToEnd {
			av, bv := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(stderr, "bench: %s %s: missing from one side (%d vs %d runs)\n", wl.name, m.Name, len(av), len(bv))
				status = 2
				continue
			}
			worse, spread, v := verdict(av, bv, m.Better, m.Bound)
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(stdout, "%-10s %-16s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] %+7.2f%% %6.2f%% %6.1f%%  %s\n",
				wl.name, m.Name, am, a1, a3, bm, b1, b3, 100*worse, 100*spread, 100*m.Bound, v)
			if v == "regressed" && status == 0 {
				status = 1
			}
		}
	}
	return status
}
