package faults_test

import (
	"reflect"
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/topology"
	"edn/internal/xrand"
)

// ednPaths is the independent reference for an EDN mask's reachability:
// a depth-first walk from every live input along every live output
// label of every switch it enters, crossing cfg's own gamma tables,
// marking the output terminals it arrives at.
func ednPaths(cfg topology.Config, m *faults.Masks) []bool {
	out := make([]bool, cfg.Outputs())
	seen := map[[2]int]bool{}
	var walk func(s, w int) // w: an input wire of stage s
	walk = func(s, w int) {
		if seen[[2]int{s, w}] {
			return
		}
		seen[[2]int{s, w}] = true
		row := m.LiveStageOutputs(s)
		if s == cfg.L+1 {
			for t := w / cfg.C * cfg.C; t < (w/cfg.C+1)*cfg.C; t++ {
				out[t] = out[t] || row == nil || row[t]
			}
			return
		}
		tab := cfg.InterstageTable(s)
		bc := cfg.B * cfg.C
		for o := w / cfg.A * bc; o < (w/cfg.A+1)*bc; o++ {
			if row != nil && !row[o] {
				continue
			}
			next := o
			if tab != nil {
				next = int(tab[o])
			}
			walk(s+1, next)
		}
	}
	live := m.LiveInputs()
	for i := 0; i < cfg.Inputs(); i++ {
		if live == nil || live[i] {
			walk(1, i)
		}
	}
	return out
}

// dilatedPaths walks a dilated mask's paths group by group over the
// delta skeleton's own tables: a link group conducts while any of its d
// sub-wires lives, and every input port is live.
func dilatedPaths(cfg dilated.Config, m *faults.Masks) []bool {
	delta, err := topology.New(cfg.B, cfg.B, 1, cfg.L)
	if err != nil {
		panic(err)
	}
	out := make([]bool, cfg.Ports())
	seen := map[[2]int]bool{}
	var walk func(s, g int) // g: an input port (s = 1) or link group of stage s
	walk = func(s, g int) {
		if seen[[2]int{s, g}] {
			return
		}
		seen[[2]int{s, g}] = true
		row := m.LiveStageOutputs(s)
		tab := delta.InterstageTable(s)
		for o := g / cfg.B * cfg.B; o < (g/cfg.B+1)*cfg.B; o++ {
			live := row == nil
			for w := 0; w < cfg.D; w++ {
				live = live || row[o*cfg.D+w]
			}
			switch {
			case !live:
			case s == cfg.L:
				out[o] = true
			case tab != nil:
				walk(s+1, int(tab[o]))
			default:
				walk(s+1, o)
			}
		}
	}
	for p := 0; p < cfg.Ports(); p++ {
		walk(1, p)
	}
	return out
}

// ednSet kills each switch, wire (boundaries 0..l) and port (hyperbar
// and crossbar) of cfg independently with probability f.
func ednSet(cfg topology.Config, f float64, rng *xrand.Rand) faults.Set {
	var set faults.Set
	for s := 1; s <= cfg.L+1; s++ {
		for sw := 0; sw < cfg.SwitchesInStage(s); sw++ {
			if rng.Bool(f / 2) {
				set.Switches = append(set.Switches, faults.SwitchID{Stage: s, Switch: sw})
			}
			buckets, wires := cfg.B, cfg.C
			if s == cfg.L+1 {
				buckets, wires = cfg.C, 1
			}
			for b := 0; b < buckets; b++ {
				for w := 0; w < wires; w++ {
					if rng.Bool(f) {
						set.Ports = append(set.Ports, faults.PortID{Stage: s, Switch: sw, Bucket: b, Wire: w})
					}
				}
			}
		}
	}
	for b := 0; b <= cfg.L; b++ {
		for w := 0; w < cfg.WiresAfterStage(b); w++ {
			if rng.Bool(f) {
				set.Wires = append(set.Wires, faults.WireID{Boundary: b, Wire: w})
			}
		}
	}
	return set
}

// TestReachabilityMatchesPathEnumeration pins the one forward flood
// against an independent path walk on both fabrics, including the c=1
// delta corner and the d=1 dilated delta, under random masks of every
// component kind each fabric has.
func TestReachabilityMatchesPathEnumeration(t *testing.T) {
	masks := 0
	for _, g := range [][4]int{{4, 2, 2, 2}, {4, 4, 2, 2}, {8, 4, 2, 2}, {4, 2, 2, 3}, {2, 2, 1, 3}, {4, 4, 1, 2}, {8, 8, 1, 1}, {4, 4, 4, 1}} {
		cfg, err := topology.New(g[0], g[1], g[2], g[3])
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 40; seed++ {
			for _, f := range []float64{0.02, 0.1, 0.3} {
				m, err := faults.Compile(cfg, ednSet(cfg, f, xrand.New(seed)))
				if err != nil {
					t.Fatal(err)
				}
				got := make([]bool, cfg.Outputs())
				n := m.ReachableOutputsInto(got)
				if want := ednPaths(cfg, m); !reflect.DeepEqual(got, want) || n != count(want) {
					t.Fatalf("%v seed %d f=%g: flood %v (%d), paths %v", cfg, seed, f, got, n, want)
				}
				masks++
			}
		}
	}
	for _, g := range [][3]int{{2, 1, 3}, {2, 2, 2}, {2, 2, 3}, {4, 2, 2}, {2, 4, 2}, {4, 1, 2}} {
		cfg, err := dilated.New(g[0], g[1], g[2])
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 40; seed++ {
			for _, f := range []float64{0.1, 0.3, 0.6} {
				m, err := dilatedsim.Compile(cfg, dilatedsim.SubWires(cfg).Bernoulli(f, xrand.New(seed)))
				if err != nil {
					t.Fatal(err)
				}
				got := make([]bool, cfg.Ports())
				n := m.ReachableOutputsInto(got)
				if want := dilatedPaths(cfg, m); !reflect.DeepEqual(got, want) || n != count(want) {
					t.Fatalf("%v seed %d f=%g: flood %v (%d), paths %v", cfg, seed, f, got, n, want)
				}
				masks++
			}
		}
	}
	t.Logf("flood agreed with path enumeration on %d masks", masks)
}

func count(v []bool) int {
	n := 0
	for _, ok := range v {
		if ok {
			n++
		}
	}
	return n
}
