package traffic

import "fmt"

// Fixed wraps a static request vector as a Pattern: the same requests are
// offered every cycle. Useful for replaying specific permutations (the
// identity of Figure 5/6, bit reversal, etc.).
type Fixed struct {
	Label string
	Dest  []int
}

// Name implements Pattern.
func (f Fixed) Name() string { return f.Label }

// GenerateInto implements Pattern. It panics if the stored vector does
// not match the requested geometry — a harness bug, not a runtime
// condition.
func (f Fixed) GenerateInto(dest []int, outputs int) {
	if len(f.Dest) != len(dest) {
		panic(fmt.Sprintf("traffic: fixed pattern %q has %d entries, want %d", f.Label, len(f.Dest), len(dest)))
	}
	for i, d := range f.Dest {
		if d != None && (d < 0 || d >= outputs) {
			panic(fmt.Sprintf("traffic: fixed pattern %q entry %d = %d out of range [0,%d)", f.Label, i, d, outputs))
		}
	}
	copy(dest, f.Dest)
}

// Identity returns the identity permutation on n ports: input i requests
// output i. The paper shows EDN(64,16,4,2) cannot route it in one pass
// (Figure 5) without the Corollary 2 retirement trick (Figure 6).
func Identity(n int) Fixed {
	dest := make([]int, n)
	for i := range dest {
		dest[i] = i
	}
	return Fixed{Label: "identity", Dest: dest}
}

// BitReversal returns the bit-reversal permutation on n = 2^k ports.
func BitReversal(n int) (Fixed, error) {
	k, err := log2Exact(n)
	if err != nil {
		return Fixed{}, err
	}
	dest := make([]int, n)
	for i := range dest {
		v := 0
		for bit := 0; bit < k; bit++ {
			v = v<<1 | (i >> bit & 1)
		}
		dest[i] = v
	}
	return Fixed{Label: "bit-reversal", Dest: dest}, nil
}

// PerfectShuffle returns the shuffle permutation on n = 2^k ports
// (left-rotate the address by one bit).
func PerfectShuffle(n int) (Fixed, error) {
	k, err := log2Exact(n)
	if err != nil {
		return Fixed{}, err
	}
	dest := make([]int, n)
	for i := range dest {
		dest[i] = (i<<1 | i>>(k-1)) & (n - 1)
	}
	return Fixed{Label: "perfect-shuffle", Dest: dest}, nil
}

// BitComplement returns the complement permutation on n = 2^k ports.
func BitComplement(n int) (Fixed, error) {
	if _, err := log2Exact(n); err != nil {
		return Fixed{}, err
	}
	dest := make([]int, n)
	for i := range dest {
		dest[i] = (n - 1) ^ i
	}
	return Fixed{Label: "bit-complement", Dest: dest}, nil
}

// Transpose returns the matrix-transpose permutation on n = 2^(2m) ports
// (swap the two halves of the address bits).
func Transpose(n int) (Fixed, error) {
	k, err := log2Exact(n)
	if err != nil {
		return Fixed{}, err
	}
	if k%2 != 0 {
		return Fixed{}, fmt.Errorf("traffic: transpose needs an even number of address bits, got %d", k)
	}
	h := k / 2
	mask := (1 << h) - 1
	dest := make([]int, n)
	for i := range dest {
		dest[i] = (i&mask)<<h | i>>h
	}
	return Fixed{Label: "transpose", Dest: dest}, nil
}

func log2Exact(n int) (int, error) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("traffic: size %d is not a positive power of two", n)
	}
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	return k, nil
}
