// The quick run takes about 5 s, and about ten times that under the race
// detector; it checks no concurrency the race suite does not already
// cover, so race builds skip it.

//go:build !race

package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ced/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestPaperNumbersGolden renders -exp all and -exp ablations at -quick sizes
// and compares the text with testdata/<group>.golden exactly: histograms,
// agreement and error rates, intrinsic dimensionality, computation counts.
// The wall-clock columns vary from run to run and are zeroed before
// rendering (see renderGolden). A change that moves a paper number fails
// here; rerun with -update and say why in the change.
func TestPaperNumbersGolden(t *testing.T) {
	for _, group := range []string{"all", "ablations"} {
		t.Run(group, func(t *testing.T) {
			var got bytes.Buffer
			for i, name := range expand(group) {
				if i > 0 {
					fmt.Fprintln(&got, separator)
				}
				res, err := runExperiment(name, sizes{quick: true}, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := renderGolden(&got, res); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			path := filepath.Join("testdata", group+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() == string(want) {
				return
			}
			g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, g[i], w[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
		})
	}
}

// renderGolden renders res with its wall-clock fields zeroed. The tables
// print per-query computation averages to 0.1, where one computation over
// 20 to 40 queries can round away, so those averages follow at full
// precision: each is a count total divided once by the query count, the
// same on every platform.
func renderGolden(w io.Writer, res renderer) error {
	var exact any
	switch r := res.(type) {
	case experiments.SweepResult:
		for _, row := range r.EstTime {
			clear(row)
		}
		clear(r.Latency)
		exact = r.AvgComps
	case experiments.SearcherAblationResult:
		clear(r.QueryMicros)
		exact = r.AvgComps
	case experiments.ExactVsHeuristicResult:
		clear(r.ExactNanos)
		clear(r.HeurNanos)
		clear(r.WindowNanos)
	case experiments.PivotAblationResult:
		exact = r.AvgComps
	case experiments.Table2Result:
		exact = [][]float64{r.LAESAComps, r.ExhComps}
	}
	if err := res.Render(w); err != nil {
		return err
	}
	if exact != nil {
		fmt.Fprintf(w, "computations per query, full precision: %v\n", exact)
	}
	return nil
}
