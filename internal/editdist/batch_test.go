package editdist

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchCase runs one batch against the scalar engine and reports any lane
// that diverges.
func checkBatchAgainstScalar(t *testing.T, q []rune, cands [][]rune, ks []int) {
	t.Helper()
	var batch, scalar Scratch
	got := batch.MyersBoundedBatch(q, cands, ks, nil)
	for i, cand := range cands {
		want := scalar.MyersBounded(q, cand, ks[i])
		if got[i] != want {
			t.Fatalf("lane %d: MyersBoundedBatch(%q, %q, %d) = %d, want scalar %d",
				i, string(q), string(cand), ks[i], got[i], want)
		}
	}
}

func TestMyersBoundedBatchMatchesScalar(t *testing.T) {
	queries := []string{
		"", "a", "kitten", "contextual", "ñandú",
		"abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijkl",  // 64 symbols
		"abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklm", // 65: blocked fallback
		"日本語テキスト", // wide symbols: map fallback
	}
	cands := [][]rune{
		[]rune(""), []rune("a"), []rune("sitting"), []rune("kitten"),
		[]rune("contextua"), []rune("ñandú"), []rune("nandu"),
		[]rune("a very much longer candidate text than any query here"),
		[]rune("日本語のテキスト"), []rune("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	}
	for _, sq := range queries {
		q := []rune(sq)
		for _, k := range []int{-1, 0, 1, 2, 5, 64, 1000} {
			ks := make([]int, len(cands))
			for i := range ks {
				ks[i] = k
			}
			checkBatchAgainstScalar(t, q, cands, ks)
		}
	}
}

// TestMyersBoundedBatchMixedBounds exercises per-lane bounds, including a
// batch whose lanes retire in every possible order (early exits, length
// rejections and full scans interleaved within one lane group).
func TestMyersBoundedBatchMixedBounds(t *testing.T) {
	q := []rune("contextual")
	cands := [][]rune{
		[]rune("contextual"),           // distance 0
		[]rune("context"),              // distance 3
		[]rune("zzzzzzzzzzzzzzzzzzzz"), // far
		[]rune(""),                     // empty
		[]rune("co"),                   // short
		[]rune("contextually bounded"), // longer
	}
	ks := []int{0, 2, 3, 20, -1, 7}
	checkBatchAgainstScalar(t, q, cands, ks)
}

func TestMyersBoundedBatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abñc")
	randRunes := func(n int) []rune {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		q := randRunes(rng.Intn(80))
		nc := 1 + rng.Intn(9)
		cands := make([][]rune, nc)
		ks := make([]int, nc)
		for i := range cands {
			cands[i] = randRunes(rng.Intn(90))
			ks[i] = rng.Intn(12) - 1
		}
		checkBatchAgainstScalar(t, q, cands, ks)
	}
}

func TestMyersBoundedBatchReusesOut(t *testing.T) {
	var s Scratch
	q := []rune("abc")
	cands := [][]rune{[]rune("abd"), []rune("xyz")}
	out := make([]int, 2)
	got := s.MyersBoundedBatch(q, cands, []int{3, 3}, out)
	if &got[0] != &out[0] {
		t.Fatal("MyersBoundedBatch allocated a fresh slice although out had the right length")
	}
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestMyersBoundedBatchPanicsOnBoundMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for len(ks) != len(cands)")
		}
	}()
	var s Scratch
	s.MyersBoundedBatch([]rune("ab"), [][]rune{[]rune("a")}, nil, nil)
}

// TestScratchSteadyStateAllocs pins the allocation contract of the bounded
// engines on a reused Scratch: zero steady-state allocations on the
// Latin-1 direct-index path, the wide-rune map path, the blocked path and
// the batch kernel (with a caller-provided out slice).
func TestScratchSteadyStateAllocs(t *testing.T) {
	var s Scratch
	cases := []struct {
		name string
		a, b []rune
	}{
		{"latin1", []rune("ñandú corre"), []rune("nandu core")},
		{"wide", []rune("日本語のテキスト行"), []rune("日本語テキスト行々")},
		{"blocked", []rune("abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz0123456789"), []rune("abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz012345678")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.a)
			s.MyersBounded(tc.a, tc.b, k) // warm the buffers
			if avg := testing.AllocsPerRun(50, func() { s.MyersBounded(tc.a, tc.b, k) }); avg != 0 {
				t.Fatalf("scalar %s path: %v allocs/op at steady state, want 0", tc.name, avg)
			}
		})
	}
	t.Run("batch", func(t *testing.T) {
		q := []rune("contextual")
		cands := [][]rune{[]rune("contextua"), []rune("context"), []rune("ñandú"), []rune("zzz"), []rune("textual")}
		ks := []int{5, 5, 9, 9, 5}
		out := make([]int, len(cands))
		s.MyersBoundedBatch(q, cands, ks, out)
		if avg := testing.AllocsPerRun(50, func() { s.MyersBoundedBatch(q, cands, ks, out) }); avg != 0 {
			t.Fatalf("batch kernel: %v allocs/op at steady state, want 0", avg)
		}
	})
	// Alternating patterns must not defeat correctness (the cache keys on
	// the pattern): interleave two patterns per path and re-check values.
	t.Run("alternating", func(t *testing.T) {
		pairs := [][2][]rune{
			{[]rune("kitten"), []rune("sitting")},
			{[]rune("sitting"), []rune("kitten")},
			{[]rune("日本語"), []rune("日本誤")},
			{[]rune("ñandú"), []rune("ñandu")},
		}
		for round := 0; round < 3; round++ {
			for _, p := range pairs {
				want := Distance(p[0], p[1])
				if got := s.MyersBounded(p[0], p[1], want); got != want {
					t.Fatalf("alternating patterns broke the cache: %q vs %q got %d want %d",
						string(p[0]), string(p[1]), got, want)
				}
			}
		}
	})
}

// BenchmarkMyersBatch compares the scalar bounded engine against the
// multi-candidate kernel on a dictionary-shaped workload: one short query
// against a row of short candidates, the shape of LAESA pivot rows and
// /batch traffic. The scalar baseline uses the same warm Scratch, so the
// delta is purely the batch amortisation (shared pattern table + SoA ILP).
func BenchmarkMyersBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []rune("abcdefghijklmnñopqrstuvwxyz")
	word := func(n int) []rune {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	for _, size := range []int{64, 512} {
		q := word(9)
		cands := make([][]rune, size)
		ks := make([]int, size)
		for i := range cands {
			cands[i] = word(6 + rng.Intn(8))
			ks[i] = 4
		}
		out := make([]int, size)
		var s Scratch
		b.Run(fmt.Sprintf("scalar/cands=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, cand := range cands {
					out[j] = s.MyersBounded(q, cand, ks[j])
				}
			}
		})
		b.Run(fmt.Sprintf("batch/cands=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.MyersBoundedBatch(q, cands, ks, out)
			}
		})
	}
}
