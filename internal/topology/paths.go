package topology

import "fmt"

// Family is a fixed-switch family of EDNs, e.g. EDN(8,4,2,*): the networks
// obtained from one hyperbar geometry by growing the stage count. The
// performance figures of the paper (Figures 7, 8 and 11) sweep exactly
// such families against network size.
type Family struct {
	A, B, C int
}

// String renders the family in the paper's EDN(a,b,c,*) notation.
func (f Family) String() string { return fmt.Sprintf("EDN(%d,%d,%d,*)", f.A, f.B, f.C) }

// Configs returns the family members with at least minInputs and at most
// maxInputs network inputs, in increasing size order.
func (f Family) Configs(minInputs, maxInputs int) ([]Config, error) {
	var out []Config
	for l := 1; ; l++ {
		cfg, err := New(f.A, f.B, f.C, l)
		if err != nil {
			// Growing l only trips the size guard; stop there.
			if l == 1 {
				return nil, err
			}
			return out, nil
		}
		if cfg.Inputs() > maxInputs {
			return out, nil
		}
		if cfg.Inputs() >= minInputs {
			out = append(out, cfg)
		}
		if f.A == f.C { // size does not grow with l; avoid an infinite loop
			return out, nil
		}
	}
}
