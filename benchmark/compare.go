package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare and the test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults reads a result file: what run.sh merges ({"runs": [...]}) or
// what -out appends (one result per line).
func readResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Runs []result `json:"runs"`
	}
	if json.Unmarshal(b, &doc) == nil && doc.Runs != nil {
		return doc.Runs, nil
	}
	var out []result
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(v,
// n=4) gives. Fewer than four values have no spread to speak of.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 4 {
		return 0
	}
	x := slices.Clone(v)
	slices.Sort(x)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	med := median(x)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// runCompare prints one row per workload × end-to-end metric and returns
// the exit code: 1 on any regression or a higher share of failed ops.
func runCompare(specPath, pathA, pathB string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fatal("%v", err)
	}
	a, err := readResults(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal("%v", err)
	}
	values := func(rs []result, workload, name string) (v []float64) {
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
			}
		}
		return v
	}
	failRatio := func(rs []result, workload string) float64 {
		var failed, attempted int64
		for _, r := range rs {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		return per(float64(failed), float64(attempted))
	}

	code := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := per(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "unchanged"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %9.4f %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, per(mb, ma), 100*m.Bound, 100*spread, verdict)
		}
		fa, fb := failRatio(a, w.Name), failRatio(b, w.Name)
		verdict := "unchanged"
		if fb > fa {
			verdict = "regressed"
			code = 1
		}
		fmt.Printf("%-16s %-18s %14.6g %14.6g %9s %6.1f%% %7s  %s\n", w.Name, "op_fail_ratio", fa, fb, "", 0.0, "", verdict)
	}
	return code
}
