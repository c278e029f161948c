// Package dataset provides the three string datasets of the paper's
// evaluation — rebuilt as synthetic substrates, since the originals
// (sisap.org downloads and NIST SD3) are not available offline — plus the
// genqueries-style perturbation generator and plain-text I/O.
//
// Substitutions (README, "`cedgen` — generate datasets"):
//
//   - Spanish dictionary (86,062 words)  → Spanish: a syllable-grammar
//     generator with Spanish phonotactics and suffixes.
//   - Listeria monocytogenes genes       → DNA: family-based gene generator
//     (codon structure, Listeria-like GC content, mutation families).
//   - NIST SD3 digit contour strings     → Digits: synthetic stroke
//     rasteriser + Moore boundary tracing + Freeman chain codes.
//
// Every generator takes an explicit seed and is deterministic for it.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Dataset is a named collection of strings with optional integer labels
// (class identifiers for classification experiments).
type Dataset struct {
	// Name identifies the dataset (e.g. "spanish").
	Name string
	// Strings holds the data.
	Strings []string
	// Labels holds one class label per string; empty for unlabelled data.
	Labels []int

	runes [][]rune // lazily-built rune views of Strings
}

// Len returns the number of strings.
func (d *Dataset) Len() int { return len(d.Strings) }

// Labelled reports whether the dataset carries class labels.
func (d *Dataset) Labelled() bool { return len(d.Labels) == len(d.Strings) && len(d.Labels) > 0 }

// Runes returns rune views of the strings, converting once and caching.
// The returned slice is shared; callers must not modify it.
func (d *Dataset) Runes() [][]rune {
	if d.runes == nil {
		d.runes = make([][]rune, len(d.Strings))
		for i, s := range d.Strings {
			d.runes[i] = []rune(s)
		}
	}
	return d.runes
}

// Alphabet returns the sorted set of symbols occurring in the dataset.
func (d *Dataset) Alphabet() []rune {
	seen := map[rune]bool{}
	for _, s := range d.Strings {
		for _, r := range s {
			seen[r] = true
		}
	}
	out := make([]rune, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LengthStats returns the minimum, mean and maximum string length (in
// runes).
func (d *Dataset) LengthStats() (min int, mean float64, max int) {
	if len(d.Strings) == 0 {
		return 0, 0, 0
	}
	min = int(^uint(0) >> 1)
	total := 0
	for _, rs := range d.Runes() {
		l := len(rs)
		total += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	return min, float64(total) / float64(len(d.Strings)), max
}

// Subset returns a new dataset containing the strings at the given indices
// (labels follow when present). The rune cache is not shared.
func (d *Dataset) Subset(name string, indices []int) *Dataset {
	out := &Dataset{Name: name, Strings: make([]string, len(indices))}
	if d.Labelled() {
		out.Labels = make([]int, len(indices))
	}
	for i, idx := range indices {
		out.Strings[i] = d.Strings[idx]
		if out.Labels != nil {
			out.Labels[i] = d.Labels[idx]
		}
	}
	return out
}

// Write writes the dataset as text: one string per line, with a trailing
// "\t<label>" field when the dataset is labelled.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	labelled := d.Labelled()
	for i, s := range d.Strings {
		if labelled {
			if _, err := fmt.Fprintf(bw, "%s\t%d\n", s, d.Labels[i]); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintln(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the dataset to path via Write.
func (d *Dataset) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a dataset written by Write. Lines with a trailing tab field
// that parses as an integer become labels; the dataset is labelled only if
// every line has one.
func Read(name string, r io.Reader) (*Dataset, error) {
	d := &Dataset{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	allLabelled := true
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if idx := strings.LastIndexByte(line, '\t'); idx >= 0 {
			if label, err := strconv.Atoi(line[idx+1:]); err == nil {
				d.Strings = append(d.Strings, line[:idx])
				d.Labels = append(d.Labels, label)
				continue
			}
		}
		d.Strings = append(d.Strings, line)
		allLabelled = false
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", name, err)
	}
	if !allLabelled {
		if len(d.Labels) > 0 {
			return nil, fmt.Errorf("dataset: %s mixes labelled and unlabelled lines", name)
		}
		d.Labels = nil
	}
	return d, nil
}

// ReadFile reads a dataset from path via Read; the dataset name is the
// path's base name.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return Read(base, f)
}
