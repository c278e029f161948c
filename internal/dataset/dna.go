package dataset

import "math/rand"

// DNAConfig parameterises the synthetic gene generator that substitutes for
// the 20,660 Listeria monocytogenes gene sequences used by the paper.
type DNAConfig struct {
	// Count is the total number of sequences to generate.
	Count int
	// Families is the number of ancestral genes; members of a family are
	// mutated copies of its ancestor, giving the cluster structure of
	// homologous genes. Defaults to max(1, Count/20).
	Families int
	// MinLen and MaxLen bound the ancestor lengths in symbols. They are
	// rounded to whole codons. The real Listeria genes run to a few
	// kilobases; the defaults (120, 900) are scaled down so the cubic and
	// quadratic distances stay laptop-friendly. Defaults apply when zero.
	MinLen, MaxLen int
	// GC is the GC content of ancestor bodies; Listeria monocytogenes
	// sits near 0.38. Defaults to 0.38 when zero.
	GC float64
	// SubRate and IndelRate are the per-symbol mutation probabilities
	// applied to derive each family member from its ancestor. Default to
	// 0.08 and 0.02 when zero.
	SubRate, IndelRate float64
}

func (c DNAConfig) withDefaults() DNAConfig {
	if c.Families <= 0 {
		c.Families = c.Count / 20
		if c.Families < 1 {
			c.Families = 1
		}
	}
	if c.MinLen <= 0 {
		c.MinLen = 120
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = 900
		if c.MaxLen < c.MinLen {
			c.MaxLen = c.MinLen
		}
	}
	if c.GC <= 0 {
		c.GC = 0.38
	}
	if c.SubRate <= 0 {
		c.SubRate = 0.08
	}
	if c.IndelRate <= 0 {
		c.IndelRate = 0.02
	}
	return c
}

var (
	dnaStops = []string{"taa", "tag", "tga"}
	dnaAT    = []byte{'a', 't'}
	dnaGC    = []byte{'g', 'c'}
)

// DNA generates cfg.Count gene-like sequences over the alphabet acgt,
// labelled by family. Each sequence has an atg start codon, a stop codon,
// and a codon-structured body with the configured GC content; family
// members are point-mutated and indel-mutated copies of a shared ancestor,
// reproducing the metric cluster structure of real homologous genes.
//
// Generation is deterministic for a given (cfg, seed).
func DNA(cfg DNAConfig, seed int64) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:    "genes",
		Strings: make([]string, 0, cfg.Count),
		Labels:  make([]int, 0, cfg.Count),
	}
	ancestors := make([]string, cfg.Families)
	for f := range ancestors {
		ancestors[f] = dnaAncestor(rng, cfg)
	}
	for i := 0; i < cfg.Count; i++ {
		f := i % cfg.Families
		d.Strings = append(d.Strings, dnaMutate(rng, ancestors[f], cfg))
		d.Labels = append(d.Labels, f)
	}
	return d
}

func dnaBase(rng *rand.Rand, gc float64) byte {
	if rng.Float64() < gc {
		return dnaGC[rng.Intn(2)]
	}
	return dnaAT[rng.Intn(2)]
}

func dnaAncestor(rng *rand.Rand, cfg DNAConfig) string {
	length := cfg.MinLen
	if cfg.MaxLen > cfg.MinLen {
		length += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
	}
	codons := length / 3
	if codons < 3 {
		codons = 3
	}
	buf := make([]byte, 0, codons*3)
	buf = append(buf, "atg"...)
	for i := 0; i < codons-2; i++ {
		// Body codons avoid in-frame stops so the "gene" stays plausible:
		// resample the codon when it matches a stop.
		for {
			c0, c1, c2 := dnaBase(rng, cfg.GC), dnaBase(rng, cfg.GC), dnaBase(rng, cfg.GC)
			codon := string([]byte{c0, c1, c2})
			if codon == dnaStops[0] || codon == dnaStops[1] || codon == dnaStops[2] {
				continue
			}
			buf = append(buf, c0, c1, c2)
			break
		}
	}
	buf = append(buf, dnaStops[rng.Intn(3)]...)
	return string(buf)
}

func dnaMutate(rng *rand.Rand, ancestor string, cfg DNAConfig) string {
	src := []byte(ancestor)
	out := make([]byte, 0, len(src)+8)
	for _, b := range src {
		r := rng.Float64()
		switch {
		case r < cfg.IndelRate/2:
			// Deletion: skip the symbol.
		case r < cfg.IndelRate:
			// Insertion before the symbol.
			out = append(out, dnaBase(rng, cfg.GC), b)
		case r < cfg.IndelRate+cfg.SubRate:
			// Substitution.
			nb := dnaBase(rng, cfg.GC)
			for nb == b {
				nb = dnaBase(rng, cfg.GC)
			}
			out = append(out, nb)
		default:
			out = append(out, b)
		}
	}
	return string(out)
}
