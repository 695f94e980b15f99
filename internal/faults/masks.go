package faults

import (
	"fmt"

	"edn/internal/topology"
)

// Masks is a compiled fault set: per-stage availability over the
// stage-local output-wire labels the engine's grant loops index, plus
// an input-side availability row, together with the fabric descriptor
// they were compiled against. Masks are immutable after compilation and
// safe to share across goroutines and engines.
//
// Label spaces:
//
//   - LiveStageOutputs(s) for a switch stage s covers its output labels
//     o = switch*(Buckets*Wires) + bucket*Wires + wire; a grant may take
//     output o only if the entry is true. The row already folds in
//     everything downstream of the grant: the port itself, the
//     post-table wire, and the liveness of the next stage's switch that
//     wire feeds.
//   - LiveStageOutputs of the last (retire) stage covers the network
//     output terminals; a delivery to terminal t requires entry t.
//   - LiveInputs covers the network input wires; a request entering on
//     a dead input (severed wire, or dead first-stage switch) is blocked
//     at stage 1 before any arbitration.
//
// A nil row means "stage fully live"; the engine keeps its unfaulted
// kernels for nil rows, which is what makes the empty mask bit-for-bit
// free.
//
// A nil *Masks is accepted wherever a mask is optional (Empty, the
// engine constructors, the count accessors). Whatever walks the
// descriptor itself — ReachableOutputs, LiveInputCount and the analytic
// ExpectedUniformBandwidth, on any fabric — requires a compiled mask;
// Compile(cfg, Set{}) yields an EDN's fault-free one.
type Masks struct {
	label  fmt.Stringer     // the geometry the descriptor belongs to
	st     []topology.Stage // the descriptor (its tables shared, never written)
	liveIn []bool           // nil = all inputs live
	live   [][]bool         // [stage-1]; nil row = stage fully live

	deadSwitches int // distinct dead switches
	deadWires    int // distinct dead stage-input wires
	deadPorts    int // distinct dead stage-output wires
}

// Compile validates set against the EDN cfg and folds it into
// availability masks over the EDN's descriptor, cfg.Fabric(), whose
// freshly built interstage tables the masks retain. A nil or zero set
// compiles to the empty mask.
func Compile(cfg topology.Config, set Set) (*Masks, error) {
	st, err := cfg.Fabric()
	if err != nil {
		return nil, err
	}
	return CompileFabric(cfg, st, set)
}

// CompileFabric validates set against the descriptor st of the fabric
// label names and folds it into availability masks. The masks keep st
// (sharing its tables) for the flood, and label for the engine's
// geometry check: a running engine compiles over its own descriptor
// (queuesim's CompileFaults) without rebuilding anything. Work and
// allocation are dense rows per faulted stage, never per dead
// component.
func CompileFabric(label fmt.Stringer, st []topology.Stage, set Set) (*Masks, error) {
	m := &Masks{label: label, st: st}
	if set.IsZero() {
		return m, nil
	}
	n := len(st)
	deadSw := make([][]bool, n) // [stage-1][switch]
	for _, id := range set.Switches {
		if id.Stage < 1 || id.Stage > n {
			return nil, fmt.Errorf("faults: switch stage %d out of range [1,%d]", id.Stage, n)
		}
		g := st[id.Stage-1]
		if id.Switch < 0 || id.Switch >= g.Switches {
			return nil, fmt.Errorf("faults: switch %d out of range [0,%d) in stage %d", id.Switch, g.Switches, id.Stage)
		}
		row := deadSw[id.Stage-1]
		if row == nil {
			row = make([]bool, g.Switches)
			deadSw[id.Stage-1] = row
		}
		if !row[id.Switch] {
			row[id.Switch] = true
			m.deadSwitches++
		}
	}
	// wire[b] is the availability of boundary b's wires, the inputs of
	// stage b+1: severed wires now, the inputs of dead switches below.
	wire := make([][]bool, n)
	for _, id := range set.Wires {
		if id.Boundary < 0 || id.Boundary >= n {
			return nil, fmt.Errorf("faults: wire boundary %d out of range [0,%d]", id.Boundary, n-1)
		}
		g := st[id.Boundary]
		if w := g.Switches * g.Width; id.Wire < 0 || id.Wire >= w {
			return nil, fmt.Errorf("faults: wire %d out of range [0,%d) at boundary %d", id.Wire, w, id.Boundary)
		}
		if kill(&wire[id.Boundary], g.Switches*g.Width, id.Wire) {
			m.deadWires++
		}
	}
	rows := make([][]bool, n)
	for _, id := range set.Ports {
		if id.Stage < 1 || id.Stage > n {
			return nil, fmt.Errorf("faults: port stage %d out of range [1,%d]", id.Stage, n)
		}
		g := st[id.Stage-1]
		if id.Switch < 0 || id.Switch >= g.Switches {
			return nil, fmt.Errorf("faults: port switch %d out of range [0,%d) in stage %d", id.Switch, g.Switches, id.Stage)
		}
		if id.Bucket < 0 || id.Bucket >= g.Buckets || id.Wire < 0 || id.Wire >= g.Wires {
			return nil, fmt.Errorf("faults: port (bucket %d, wire %d) of stage %d out of range (want bucket in [0,%d), wire in [0,%d))",
				id.Bucket, id.Wire, id.Stage, g.Buckets, g.Wires)
		}
		if kill(&rows[id.Stage-1], g.Switches*g.Buckets*g.Wires, (id.Switch*g.Buckets+id.Bucket)*g.Wires+id.Wire) {
			m.deadPorts++
		}
	}
	for b, dead := range deadSw {
		g := st[b]
		for sw, d := range dead {
			for w := sw * g.Width; d && w < (sw+1)*g.Width; w++ {
				kill(&wire[b], g.Switches*g.Width, w)
			}
		}
	}

	// Output row of stage s: label o is dead if its own port or switch
	// is, or the boundary wire it crosses onto is.
	m.liveIn = wire[0]
	for s, g := range st {
		var down []bool
		if s+1 < n {
			down = wire[s+1]
		}
		per := g.Buckets * g.Wires
		for o := 0; (deadSw[s] != nil || down != nil) && o < g.Switches*per; o++ {
			d := o
			if g.Table != nil {
				d = int(g.Table[o])
			}
			if (deadSw[s] != nil && deadSw[s][o/per]) || (down != nil && !down[d]) {
				kill(&rows[s], g.Switches*per, o)
			}
		}
		if rows[s] != nil {
			m.live = rows
		}
	}
	return m, nil
}

// kill marks entry i of the lazily allocated availability row *row (n
// entries, all live when first allocated) dead, reporting whether it
// was live.
func kill(row *[]bool, n, i int) bool {
	if *row == nil {
		*row = make([]bool, n)
		for k := range *row {
			(*row)[k] = true
		}
	}
	was := (*row)[i]
	(*row)[i] = false
	return was
}

// MustCompile is Compile for sets known valid by construction (sampler
// output); it panics on error.
func MustCompile(cfg topology.Config, set Set) *Masks {
	m, err := Compile(cfg, set)
	if err != nil {
		panic(err)
	}
	return m
}

// Label returns the geometry the masks were compiled for: a
// topology.Config for EDN masks, the descriptor builder's own
// configuration otherwise.
func (m *Masks) Label() fmt.Stringer { return m.label }

// Fabric returns the descriptor the masks were compiled against. The
// slice and its tables are shared; callers must not modify them.
func (m *Masks) Fabric() []topology.Stage { return m.st }

// Empty reports whether the masks disable nothing — the engine treats
// an empty mask exactly like no mask at all.
func (m *Masks) Empty() bool {
	return m == nil || (m.liveIn == nil && m.live == nil)
}

// LiveInputs returns the network-input availability row, or nil if all
// inputs are live. The slice is shared; callers must not modify it.
func (m *Masks) LiveInputs() []bool {
	if m == nil {
		return nil
	}
	return m.liveIn
}

// LiveStageOutputs returns stage s's output availability row (1-based;
// the last stage covers the output terminals), or nil if the stage is
// fully live. The slice is shared; callers must not modify it.
func (m *Masks) LiveStageOutputs(s int) []bool {
	if m == nil || m.live == nil {
		return nil
	}
	if s < 1 || s > len(m.st) {
		panic(fmt.Sprintf("faults: stage %d out of range [1,%d]", s, len(m.st)))
	}
	return m.live[s-1]
}

// DeadSwitches returns the number of distinct dead switches.
func (m *Masks) DeadSwitches() int {
	if m == nil {
		return 0
	}
	return m.deadSwitches
}

// DeadWires returns the number of distinct severed stage-input wires
// (including network input wires at boundary 0).
func (m *Masks) DeadWires() int {
	if m == nil {
		return 0
	}
	return m.deadWires
}

// DeadPorts returns the number of distinct dead stage-output wires —
// switch output ports, or a dilated delta's sub-wires.
func (m *Masks) DeadPorts() int {
	if m == nil {
		return 0
	}
	return m.deadPorts
}

// ReachableOutputs returns how many output terminals remain connected
// to at least one live network input through live components, by
// forward flood over the masked descriptor. A fault-free network
// reaches every output. m must be a compiled mask (nil has no
// topology).
func (m *Masks) ReachableOutputs() int {
	if m == nil {
		panic("faults: ReachableOutputs needs a compiled mask")
	}
	last := m.st[len(m.st)-1]
	return m.ReachableOutputsInto(make([]bool, last.Switches*last.Buckets))
}

// ReachableOutputsInto is ReachableOutputs exposing the per-terminal
// verdict: dst[t] is set to whether output terminal t is reachable from
// some live input, and the count is returned. dst must have one slot
// per output. Closed-loop drivers use the vector as an avoidance list —
// a source should not address an output the fault state has cut off.
// The flood is an epoch-boundary operation (it allocates scratch), not
// a per-cycle one.
func (m *Masks) ReachableOutputsInto(dst []bool) int {
	if m == nil {
		panic("faults: ReachableOutputsInto needs a compiled mask")
	}
	last := m.st[len(m.st)-1]
	if outputs := last.Switches * last.Buckets; len(dst) != outputs {
		panic(fmt.Sprintf("faults: ReachableOutputsInto got %d slots, want %d outputs", len(dst), outputs))
	}
	// fed[w] = stage-input wire w carries traffic from some live input.
	fed := make([]bool, m.st[0].Switches*m.st[0].Width)
	for i := range fed {
		fed[i] = m.liveIn == nil || m.liveIn[i]
	}
	for i := range dst {
		dst[i] = false
	}
	reach := 0
	for s, g := range m.st {
		row := m.LiveStageOutputs(s + 1)
		per := g.Buckets * g.Wires
		var next []bool
		if s+1 < len(m.st) {
			next = make([]bool, m.st[s+1].Switches*m.st[s+1].Width)
		}
		for sw := 0; sw < g.Switches; sw++ {
			swFed := false
			for _, ok := range fed[sw*g.Width : (sw+1)*g.Width] {
				swFed = swFed || ok
			}
			if !swFed {
				continue
			}
			for o := sw * per; o < (sw+1)*per; o++ {
				switch {
				case row != nil && !row[o]:
				case next == nil:
					dst[o] = true
					reach++
				case g.Table != nil:
					next[g.Table[o]] = true
				default:
					next[o] = true
				}
			}
		}
		fed = next
	}
	return reach
}

// LiveInputCount returns how many network inputs can still inject.
// m must be a compiled mask (nil has no topology).
func (m *Masks) LiveInputCount() int {
	if m == nil {
		panic("faults: LiveInputCount needs a compiled mask")
	}
	n := 0
	for i := 0; i < m.st[0].Switches*m.st[0].Width; i++ {
		if m.liveIn == nil || m.liveIn[i] {
			n++
		}
	}
	return n
}

// String summarizes the compiled fault state.
func (m *Masks) String() string {
	return fmt.Sprintf("masks(%v: %d dead switches, %d dead wires, %d dead ports, %d outputs reachable)",
		m.label, m.deadSwitches, m.deadWires, m.deadPorts, m.ReachableOutputs())
}
