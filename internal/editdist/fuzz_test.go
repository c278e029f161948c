package editdist

import "testing"

// Native fuzz targets. The seed corpus runs as part of the normal test
// suite; `go test -fuzz=FuzzX ./internal/editdist` explores further.

func FuzzDistanceEnginesAgree(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("ññ", "nn")
	f.Add("aaaa", "aa")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, b := []rune(sa), []rune(sb)
		if len(a) > 200 || len(b) > 200 {
			t.Skip()
		}
		d := Distance(a, b)
		if bd := MyersBounded(a, b, d); bd != d {
			t.Fatalf("MyersBounded at exact threshold %d gave %d", d, bd)
		}
		if d > 0 {
			if bd := MyersBounded(a, b, d-1); bd != d {
				t.Fatalf("MyersBounded below threshold should report k+1=%d, got %d", d, bd)
			}
		}
	})
}

// FuzzMyersBounded pins the bounded bit-parallel engine against the plain
// two-row program over arbitrary bounds: whenever MyersBounded returns a
// definite value (<= k) it must equal Distance, and otherwise it must
// return exactly k+1 with the true distance really above k. One shared
// Scratch runs every case, so buffer reuse across pattern alphabets and
// lengths is fuzzed too.
func FuzzMyersBounded(f *testing.F) {
	f.Add("kitten", "sitting", 1)
	f.Add("kitten", "sitting", 3)
	f.Add("", "abc", 0)
	f.Add("ññññ", "nnnn", 2)
	f.Add("abcdefgh", "abcdefgh", -1)
	var scratch Scratch
	f.Fuzz(func(t *testing.T, sa, sb string, k int) {
		a, b := []rune(sa), []rune(sb)
		if len(a) > 200 || len(b) > 200 || k > 500 {
			t.Skip()
		}
		d := Distance(a, b)
		got := scratch.MyersBounded(a, b, k)
		switch {
		case k < 0:
			if got != 0 {
				t.Fatalf("MyersBounded(k=%d) = %d, want 0", k, got)
			}
		case d <= k:
			if got != d {
				t.Fatalf("MyersBounded(%q,%q,%d) = %d, want the exact %d", sa, sb, k, got, d)
			}
		default:
			if got != k+1 {
				t.Fatalf("MyersBounded(%q,%q,%d) = %d, want k+1 = %d (dE = %d)", sa, sb, k, got, k+1, d)
			}
		}
		if pkg := MyersBounded(a, b, k); pkg != got {
			t.Fatalf("package-level MyersBounded %d != scratch %d", pkg, got)
		}
	})
}

// FuzzMyersBatch pins the multi-candidate kernel against the scalar
// bounded engine: for every candidate and every bound — k = 0, negative k
// and zero-length strings on both sides included — the batch lane must
// resolve exactly the scalar value. One shared Scratch runs every case in
// both roles, so table caching across alternating patterns is fuzzed too.
// The batch is assembled so one lane group mixes length rejections, early
// exits, exact resolutions and an empty candidate.
func FuzzMyersBatch(f *testing.F) {
	f.Add("kitten", "sitting", "mitten", "kit", 1, 3, 0)
	f.Add("", "abc", "", "x", 0, 2, -1)
	f.Add("ñandú", "nandu", "ñ", "ñandúñandú", 2, 0, 4)
	f.Add("abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklm", "abc", "z", "", 70, 1, 0)
	var scratch Scratch
	f.Fuzz(func(t *testing.T, sq, sa, sb, sc string, ka, kb, kc int) {
		q := []rune(sq)
		if len(q) > 200 || len(sa) > 200 || len(sb) > 200 || len(sc) > 200 {
			t.Skip()
		}
		if ka > 500 || kb > 500 || kc > 500 {
			t.Skip()
		}
		cands := [][]rune{[]rune(sa), []rune(sb), []rune(sc), []rune(sa), {}}
		ks := []int{ka, kb, kc, 0, kc}
		got := scratch.MyersBoundedBatch(q, cands, ks, nil)
		for i, cand := range cands {
			want := scratch.MyersBounded(q, cand, ks[i])
			if got[i] != want {
				t.Fatalf("batch lane %d: MyersBoundedBatch(%q, %q, %d) = %d, want scalar %d",
					i, sq, string(cand), ks[i], got[i], want)
			}
			// The scalar value itself obeys the bounded contract; cross-check
			// against the reference distance for definite results.
			if want <= ks[i] && want != Distance(q, cand) {
				t.Fatalf("definite value %d != Distance %d for %q %q", want, Distance(q, cand), sq, string(cand))
			}
		}
	})
}

func FuzzDistanceSymmetry(f *testing.F) {
	f.Add("ab", "ba")
	f.Add("x", "")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, b := []rune(sa), []rune(sb)
		if len(a) > 150 || len(b) > 150 {
			t.Skip()
		}
		if Distance(a, b) != Distance(b, a) {
			t.Fatalf("asymmetric for %q %q", sa, sb)
		}
	})
}
