package metric

import (
	"math"
	"testing"
)

const eps = 1e-12

func TestAllMetricsOnKnownPair(t *testing.T) {
	a, b := []rune("ab"), []rune("aba")
	// dE = 1.
	cases := []struct {
		m    Metric
		want float64
	}{
		{Levenshtein(), 1},
		{Contextual(), 1.0 / 3},          // one deletion from "aba" side / insertion into "ab"
		{ContextualHeuristic(), 1.0 / 3}, // heuristic agrees here
		{YujianBo(), 2.0 / 6},            // 2*1/(2+3+1)
		{MarzalVidal(), 1.0 / 3},         // weight 1 over path length 3
		{MaxNormalised(), 1.0 / 3},
		{MinNormalised(), 1.0 / 2},
		{SumNormalised(), 1.0 / 5},
	}
	for _, c := range cases {
		if got := c.m.Distance(a, b); math.Abs(got-c.want) > eps {
			t.Errorf("%s(ab,aba) = %v, want %v", c.m.Name(), got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	wantNames := map[string]string{
		"dE":   Levenshtein().Name(),
		"dC":   Contextual().Name(),
		"dC,h": ContextualHeuristic().Name(),
		"dYB":  YujianBo().Name(),
		"dMV":  MarzalVidal().Name(),
		"dmax": MaxNormalised().Name(),
		"dmin": MinNormalised().Name(),
		"dsum": SumNormalised().Name(),
	}
	for want, got := range wantNames {
		if got != want {
			t.Errorf("name = %q, want %q", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, alias := range []string{"dE", "de", "e", "dC,h", "dch", "CH", "yb", "dmax", "MV", "dmin", "dsum", "c"} {
		m, err := ByName(alias)
		if err != nil {
			t.Errorf("ByName(%q) failed: %v", alias, err)
			continue
		}
		if m == nil {
			t.Errorf("ByName(%q) returned nil metric", alias)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("Names() returned %d entries, want 8", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted at %d: %v", i, names)
		}
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("canonical name %q not resolvable: %v", n, err)
		}
	}
}

func TestCounter(t *testing.T) {
	c := &Counter{M: Levenshtein()}
	if c.Name() != "dE" {
		t.Errorf("Counter name = %q", c.Name())
	}
	a, b := []rune("abc"), []rune("axc")
	for i := 0; i < 5; i++ {
		if got := c.Distance(a, b); got != 1 {
			t.Errorf("counted distance = %v, want 1", got)
		}
	}
	if c.N != 5 {
		t.Errorf("counter N = %d, want 5", c.N)
	}
}

func TestNewWrapsFunction(t *testing.T) {
	m := New("custom", func(a, b []rune) float64 { return 42 })
	if m.Name() != "custom" || m.Distance(nil, nil) != 42 {
		t.Error("New() wrapper broken")
	}
}

func TestContextualBoundedContract(t *testing.T) {
	m, ok := Contextual().(Staged)
	if !ok {
		t.Fatal("Contextual must implement Staged")
	}
	a, b := []rune("ababa"), []rune("baab")
	want := m.Distance(a, b) // 8/15
	if d, exact := m.DistanceBounded(a, b, 1.0); !exact || d != want {
		t.Errorf("generous cutoff: got (%v, %v), want (%v, true)", d, exact, want)
	}
	if d, exact := m.DistanceBounded(a, b, 0.1); exact {
		if d != want {
			t.Errorf("exact under tight cutoff must match: %v vs %v", d, want)
		}
	} else if d <= 0.1 {
		t.Errorf("bail value %v at or below cutoff", d)
	}
}

func TestLevenshteinBoundedContract(t *testing.T) {
	m, ok := Levenshtein().(Staged)
	if !ok {
		t.Fatal("Levenshtein must implement Staged")
	}
	a, b := []rune("kitten"), []rune("sitting")
	if d, exact := m.DistanceBounded(a, b, 10); !exact || d != 3 {
		t.Errorf("cutoff 10: got (%v, %v), want (3, true)", d, exact)
	}
	if d, exact := m.DistanceBounded(a, b, 3); !exact || d != 3 {
		t.Errorf("cutoff at the distance must stay exact: got (%v, %v)", d, exact)
	}
	if d, exact := m.DistanceBounded(a, b, 2.5); exact || d <= 2.5 {
		t.Errorf("cutoff 2.5 must bail above the cutoff: got (%v, %v)", d, exact)
	}
	if d, exact := m.DistanceBounded(a, b, -1); exact || d < 0 {
		t.Errorf("negative cutoff: got (%v, %v), want a bail", d, exact)
	}
	if d, exact := m.DistanceBounded(a, b, math.Inf(1)); !exact || d != 3 {
		t.Errorf("infinite cutoff: got (%v, %v), want (3, true)", d, exact)
	}
}

func TestSessionsMatchSharedMetrics(t *testing.T) {
	pairs := [][2]string{{"ababa", "baab"}, {"", "abc"}, {"contextual", "normalised"}, {"aa", "aa"}}
	for _, base := range []Metric{Contextual(), ContextualHeuristic()} {
		s, ok := base.(Sessioner)
		if !ok {
			t.Fatalf("%s must implement Sessioner", base.Name())
		}
		sess := s.Session()
		if sess.Name() != base.Name() {
			t.Errorf("session name %q != %q", sess.Name(), base.Name())
		}
		for _, p := range pairs {
			a, b := []rune(p[0]), []rune(p[1])
			if got, want := sess.Distance(a, b), base.Distance(a, b); got != want {
				t.Errorf("%s session: %v != %v for %q %q", base.Name(), got, want, p[0], p[1])
			}
		}
	}
	if a, b := Contextual().(Sessioner).Session(), Contextual().(Sessioner).Session(); a == b {
		t.Error("sessions must be private instances, not a shared singleton")
	}
}

func TestContextualSessionBounded(t *testing.T) {
	sess := Contextual().(Sessioner).Session()
	bm, ok := sess.(Staged)
	if !ok {
		t.Fatal("contextual session must implement Staged")
	}
	a, b := []rune("ababa"), []rune("baab")
	want := Contextual().Distance(a, b)
	if d, exact := bm.DistanceBounded(a, b, 1); !exact || d != want {
		t.Errorf("session bounded: got (%v, %v), want (%v, true)", d, exact, want)
	}
}

func TestCounterBoundedPassthrough(t *testing.T) {
	c := &Counter{M: Contextual()}
	a, b := []rune("ababa"), []rune("baab")
	if _, exact := c.DistanceBounded(a, b, 1); !exact {
		t.Error("generous cutoff should be exact")
	}
	c.DistanceBounded(a, b, 0.01)
	if c.N != 2 {
		t.Errorf("bounded calls must count: N = %d, want 2", c.N)
	}
	// A non-bounded wrapped metric falls back to an exact evaluation.
	c2 := &Counter{M: MaxNormalised()}
	if d, exact := c2.DistanceBounded(a, b, 0.0001); !exact || d != MaxNormalised().Distance(a, b) {
		t.Errorf("fallback must be exact: got (%v, %v)", d, exact)
	}
	if c2.N != 1 {
		t.Errorf("fallback must count: N = %d", c2.N)
	}
}
