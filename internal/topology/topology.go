// Package topology describes the static structure of an Expanded Delta
// Network EDN(a,b,c,l) as given by Definition 2 of the paper: l stages of
// H(a -> b x c) hyperbars followed by one stage of c x c crossbars, wired
// together with the gamma permutation of Definition 3.
//
// The package answers purely structural questions — how many switches and
// wires each stage has, which output wire connects to which input wire,
// what the network costs (Equations 2 and 3), and how many paths join a
// source/destination pair (Theorem 2). Dynamic behavior (arbitration,
// blocking) lives in internal/simulate; closed-form performance in
// internal/analytic.
package topology

import (
	"fmt"
	"math"

	"edn/internal/gamma"
	"edn/internal/switchfab"
)

// Config identifies an EDN(a,b,c,l): l stages of H(A -> B x C) hyperbars
// plus a final stage of C x C crossbars.
type Config struct {
	A int // hyperbar inputs
	B int // hyperbar output buckets
	C int // bucket capacity; also the crossbar stage's dimensions
	L int // number of hyperbar stages (the network has L+1 stages total)
}

// New validates and returns an EDN(a,b,c,l) configuration.
func New(a, b, c, l int) (Config, error) {
	cfg := Config{A: a, B: b, C: c, L: l}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// NewCrossbar returns the EDN(n,n,1,1) configuration, which Definition 2
// degenerates to an n x n crossbar.
func NewCrossbar(n int) (Config, error) { return New(n, n, 1, 1) }

// NewDelta returns EDN(a,b,1,l): Patel's a^l x b^l delta network.
func NewDelta(a, b, l int) (Config, error) { return New(a, b, 1, l) }

// Validate checks the paper's structural assumptions: a, b, c powers of
// two, c dividing a, at least one hyperbar stage, and a total size that
// fits comfortably in an int.
func (cfg Config) Validate() error {
	switch {
	case !isPow2(cfg.A):
		return fmt.Errorf("topology: a=%d must be a positive power of two", cfg.A)
	case !isPow2(cfg.B):
		return fmt.Errorf("topology: b=%d must be a positive power of two", cfg.B)
	case !isPow2(cfg.C):
		return fmt.Errorf("topology: c=%d must be a positive power of two", cfg.C)
	case cfg.C > cfg.A:
		return fmt.Errorf("topology: capacity c=%d cannot exceed switch inputs a=%d", cfg.C, cfg.A)
	case cfg.L < 1:
		return fmt.Errorf("topology: l=%d must be at least 1", cfg.L)
	}
	// Guard the derived sizes: (a/c)^l * c and b^l * c must fit in 62 bits.
	if bits := cfg.L*log2(cfg.A/cfg.C) + log2(cfg.C); bits > 40 {
		return fmt.Errorf("topology: network with %d input-label bits is too large", bits)
	}
	if bits := cfg.L*log2(cfg.B) + log2(cfg.C); bits > 40 {
		return fmt.Errorf("topology: network with %d output-label bits is too large", bits)
	}
	return nil
}

// Inputs returns the number of network input terminals, (a/c)^l * c.
func (cfg Config) Inputs() int { return pow(cfg.A/cfg.C, cfg.L) * cfg.C }

// Outputs returns the number of network output terminals, b^l * c.
func (cfg Config) Outputs() int { return pow(cfg.B, cfg.L) * cfg.C }

// IsSquare reports whether the network has as many inputs as outputs,
// which holds exactly when a = b*c.
func (cfg Config) IsSquare() bool { return cfg.A == cfg.B*cfg.C }

// Stages returns the total stage count, l+1 (hyperbars plus crossbars).
func (cfg Config) Stages() int { return cfg.L + 1 }

// Hyperbar returns the switch used in stages 1..l.
func (cfg Config) Hyperbar() switchfab.Hyperbar {
	return switchfab.Hyperbar{A: cfg.A, B: cfg.B, C: cfg.C}
}

// OutputCrossbar returns the c x c switch used in stage l+1.
func (cfg Config) OutputCrossbar() switchfab.Crossbar {
	return switchfab.Crossbar{N: cfg.C, M: cfg.C}
}

// SwitchesInStage returns the number of switches in stage i (1-based).
// Stages 1..l hold (a/c)^(l-i) * b^(i-1) hyperbars; stage l+1 holds b^l
// crossbars.
func (cfg Config) SwitchesInStage(i int) int {
	if i < 1 || i > cfg.L+1 {
		panic(fmt.Sprintf("topology: stage %d out of range [1,%d]", i, cfg.L+1))
	}
	if i == cfg.L+1 {
		return pow(cfg.B, cfg.L)
	}
	return pow(cfg.A/cfg.C, cfg.L-i) * pow(cfg.B, i-1)
}

// WiresAfterStage returns the wire count W_i between stage i and stage
// i+1: (a/c)^(l-i) * b^i * c. WiresAfterStage(0) is the network input
// count and WiresAfterStage(l+1) the network output count.
func (cfg Config) WiresAfterStage(i int) int {
	if i < 0 || i > cfg.L+1 {
		panic(fmt.Sprintf("topology: stage boundary %d out of range [0,%d]", i, cfg.L+1))
	}
	if i == cfg.L+1 {
		return cfg.Outputs()
	}
	return pow(cfg.A/cfg.C, cfg.L-i) * pow(cfg.B, i) * cfg.C
}

// InterstageGamma returns the permutation wiring the outputs of stage i
// (1 <= i <= l) to the inputs of stage i+1, per Equation 1: gamma fixes
// the log2(c) least significant bits and left-rotates the rest by
// log2(a/c). The connection from the last hyperbar stage to the crossbar
// stage is the identity — each of the b^l buckets feeds one c x c
// crossbar directly.
func (cfg Config) InterstageGamma(i int) gamma.Gamma {
	if i < 1 || i > cfg.L {
		panic(fmt.Sprintf("topology: interstage %d out of range [1,%d]", i, cfg.L))
	}
	n := log2(cfg.WiresAfterStage(i))
	if i == cfg.L {
		return gamma.Identity(n)
	}
	return gamma.Gamma{J: log2(cfg.C), K: log2(cfg.A / cfg.C), N: n}
}

// InterstageTable materializes InterstageGamma(i) as a flat permutation
// table t with t[y] = gamma(y) over the W_i stage-output labels. Entries
// are int32 to halve the table's cache footprint in routing hot loops;
// Validate's 40-bit size cap is far beyond what a table (or a simulator)
// can hold in memory, so construction-time callers must bound the wire
// count themselves (queuesim.New does). The identity interstage
// (i == l, and any gamma that degenerates to the identity) returns nil,
// which callers treat as the identity map without a table lookup.
func (cfg Config) InterstageTable(i int) []int32 {
	g := cfg.InterstageGamma(i)
	if g.IsIdentity() {
		return nil
	}
	t := make([]int32, cfg.WiresAfterStage(i))
	for y := range t {
		t[y] = int32(g.Apply(y))
	}
	return t
}

// PathCount returns c^l, the number of distinct paths between any input
// and any output (Theorem 2).
func (cfg Config) PathCount() int { return pow(cfg.C, cfg.L) }

// IsCrossbarNetwork reports whether the whole network degenerates to a
// single a x b crossbar (c = 1, l = 1).
func (cfg Config) IsCrossbarNetwork() bool { return cfg.C == 1 && cfg.L == 1 }

// IsDelta reports whether the network is a classical delta network
// (c = 1), which has a unique path per source/destination pair.
func (cfg Config) IsDelta() bool { return cfg.C == 1 }

// DigitBits returns the width in bits of the destination tag:
// l*log2(b) + log2(c).
func (cfg Config) DigitBits() int { return cfg.L*log2(cfg.B) + log2(cfg.C) }

// String renders the configuration in the paper's notation.
func (cfg Config) String() string {
	return fmt.Sprintf("EDN(%d,%d,%d,%d)", cfg.A, cfg.B, cfg.C, cfg.L)
}

// SwitchOfLine returns the switch index and the switch-local input port
// for a wire entering stage i (1-based). Stages 1..l have a-input
// switches; stage l+1 has c-input crossbars.
func (cfg Config) SwitchOfLine(stage, line int) (sw, port int) {
	width := cfg.A
	if stage == cfg.L+1 {
		width = cfg.C
	}
	return line / width, line % width
}

// LineOfSwitchOutput returns the stage-output wire label for output wire
// (bucket*c + wire) of switch sw in stage i. For the crossbar stage the
// "bucket" is the output port and the wire index must be zero.
func (cfg Config) LineOfSwitchOutput(stage, sw, bucket, wire int) int {
	if stage == cfg.L+1 {
		if wire != 0 {
			panic("topology: crossbar outputs are single wires")
		}
		return sw*cfg.C + bucket
	}
	return sw*(cfg.B*cfg.C) + bucket*cfg.C + wire
}

// CrosspointCount returns the exact crosspoint-switch cost of the network:
// the sum over all hyperbars of a*b*c plus b^l crossbars of c^2 each.
// This is Equation 2 evaluated as an exact integer sum.
func (cfg Config) CrosspointCount() int64 {
	var hyperbars int64
	for i := 1; i <= cfg.L; i++ {
		hyperbars += int64(cfg.SwitchesInStage(i))
	}
	perHyperbar := int64(cfg.A) * int64(cfg.B) * int64(cfg.C)
	crossbars := int64(pow(cfg.B, cfg.L)) * int64(cfg.C) * int64(cfg.C)
	return hyperbars*perHyperbar + crossbars
}

// WireCount returns the exact wire cost of the network: one wire per
// network input, one per output, and the W_i wires after each hyperbar
// stage. This is Equation 3 evaluated as an exact integer sum.
func (cfg Config) WireCount() int64 {
	total := int64(cfg.Inputs()) + int64(cfg.Outputs())
	for i := 1; i <= cfg.L; i++ {
		total += int64(cfg.WiresAfterStage(i))
	}
	return total
}

// CrosspointCostClosedForm evaluates Equation 2 of the paper:
//
//	Cs = ((a/c)^l - b^l)/((a/c) - b) * abc + b^l*c^2   (a/c != b)
//	Cs = l*b^(l+1)*c^2 + b^l*c^2                       (a/c == b)
//
// Note: the paper prints the a/c = b branch as l*b^(l+1)*c + b^l*c^2,
// dropping a factor of c on the hyperbar term; the geometric-sum limit
// gives l*b^(l-1) hyperbars of cost abc = b^2*c^2 each, i.e.
// l*b^(l+1)*c^2. CrosspointCount (the exact sum) certifies the corrected
// form in the tests.
func (cfg Config) CrosspointCostClosedForm() float64 {
	a, b, c, l := float64(cfg.A), float64(cfg.B), float64(cfg.C), float64(cfg.L)
	q := a / c
	crossbars := math.Pow(b, l) * c * c
	if cfg.A/cfg.C == cfg.B {
		return l*math.Pow(b, l+1)*c*c + crossbars
	}
	hyperbars := (math.Pow(q, l) - math.Pow(b, l)) / (q - b)
	return hyperbars*a*b*c + crossbars
}

// WireCostClosedForm evaluates Equation 3 of the paper:
//
//	Cw = ((a/c)^l - b^l)/((a/c) - b) * bc + (a/c)^l*c + b^l*c   (a/c != b)
//	Cw = (l+2)*b^l*c                                            (a/c == b)
func (cfg Config) WireCostClosedForm() float64 {
	a, b, c, l := float64(cfg.A), float64(cfg.B), float64(cfg.C), float64(cfg.L)
	q := a / c
	if cfg.A/cfg.C == cfg.B {
		return (l + 2) * math.Pow(b, l) * c
	}
	return (math.Pow(q, l)-math.Pow(b, l))/(q-b)*b*c + math.Pow(q, l)*c + math.Pow(b, l)*c
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// log2 returns log2(v) for a positive power of two v.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// pow returns base**exp for small non-negative integer exponents.
func pow(base, exp int) int {
	r := 1
	for i := 0; i < exp; i++ {
		r *= base
	}
	return r
}

// Log2 exposes log2 for sibling packages that manipulate tags and labels.
// v must be a positive power of two.
func Log2(v int) int {
	if !isPow2(v) {
		panic(fmt.Sprintf("topology: Log2(%d) of non-power-of-two", v))
	}
	return log2(v)
}

// Pow exposes integer exponentiation for sibling packages.
func Pow(base, exp int) int { return pow(base, exp) }
