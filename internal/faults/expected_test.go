package faults

import (
	"math"
	"testing"

	"edn/internal/topology"
	"edn/internal/xrand"
)

// refEDNBandwidth is the EDN-only recursion the descriptor walk
// replaced, kept as the oracle: l hyperbar stages over cfg's own
// geometry, then a crossbar loop in which each live output terminal
// delivers iff one of its switch's c input wires requests it.
func refEDNBandwidth(cfg topology.Config, m *Masks, r float64) float64 {
	rates := make([]float64, cfg.Inputs())
	liveIn := m.LiveInputs()
	for i := range rates {
		if liveIn == nil || liveIn[i] {
			rates[i] = r
		}
	}

	bc := cfg.B * cfg.C
	invB := 1 / float64(cfg.B)
	pmf := make([]float64, cfg.C)
	for s := 1; s <= cfg.L; s++ {
		row := m.LiveStageOutputs(s)
		wires := cfg.WiresAfterStage(s)
		next := make([]float64, wires)
		tab := m.Fabric()[s-1].Table
		nsw := cfg.SwitchesInStage(s)
		for sw := 0; sw < nsw; sw++ {
			in := rates[sw*cfg.A : (sw+1)*cfg.A]
			for d := 0; d < cfg.B; d++ {
				base := sw*bc + d*cfg.C
				kLive := cfg.C
				if row != nil {
					kLive = 0
					for k := 0; k < cfg.C; k++ {
						if row[base+k] {
							kLive++
						}
					}
					if kLive == 0 {
						continue
					}
				}
				perWire := expectedMin(in, invB, kLive, pmf) / float64(kLive)
				for k := 0; k < cfg.C; k++ {
					o := base + k
					if row != nil && !row[o] {
						continue
					}
					down := o
					if tab != nil {
						down = int(tab[o])
					}
					next[down] = perWire
				}
			}
		}
		rates = next
	}

	row := m.LiveStageOutputs(cfg.L + 1)
	invC := 1 / float64(cfg.C)
	delivered := 0.0
	for t := 0; t < cfg.Outputs(); t++ {
		if row != nil && !row[t] {
			continue
		}
		sw := t / cfg.C
		pIdle := 1.0
		for p := 0; p < cfg.C; p++ {
			pIdle *= 1 - rates[sw*cfg.C+p]*invC
		}
		delivered += 1 - pIdle
	}
	return delivered
}

// portPopulation lists every stage-output wire of cfg's descriptor,
// crossbar ports (the output terminals) included: a population no
// mode samples, so dead ports of every stage reach the oracle too.
func portPopulation(t *testing.T, cfg topology.Config) Population {
	t.Helper()
	st, err := cfg.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	var p Population
	for s, g := range st {
		p = append(p, Run{Kind: PortRun, At: s + 1, N: g.Switches * g.Buckets * g.Wires, Buckets: g.Buckets, Wires: g.Wires})
	}
	return p
}

// TestExpectedBandwidthMatchesEDNOracle pins the descriptor walk to the
// EDN-only recursion bit for bit: undilated (c = 1) and 8-wire buckets,
// every fault population, fractions from healthy to all dead, several
// fault samples and rates from 0 to 1.
func TestExpectedBandwidthMatchesEDNOracle(t *testing.T) {
	geometries := []struct{ a, b, c, l int }{
		{4, 4, 1, 2}, {8, 8, 1, 2}, {4, 2, 2, 2}, {8, 4, 2, 3},
		{16, 4, 4, 2}, {64, 16, 4, 2}, {16, 2, 8, 2}, {8, 2, 8, 1},
	}
	fractions := []float64{0, 0.05, 0.1, 0.3, 0.5, 0.8, 1}
	rates := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	evals := 0
	for _, g := range geometries {
		cfg := mustCfg(t, g.a, g.b, g.c, g.l)
		pops := map[string]Population{"ports": portPopulation(t, cfg)}
		for _, mode := range []Mode{WireFaults, SwitchFaults, MixedFaults} {
			pops[mode.String()] = ModePopulation(cfg, mode)
		}
		for name, pop := range pops {
			for seed := uint64(1); seed <= 3; seed++ {
				plan := pop.Plan(xrand.New(seed))
				for _, f := range fractions {
					m := MustCompile(cfg, plan.At(f))
					for _, r := range rates {
						got, want := ExpectedUniformBandwidth(m, r), refEDNBandwidth(cfg, m, r)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%v %s seed %d f=%g r=%g: %v != oracle %v", cfg, name, seed, f, r, got, want)
						}
						evals++
					}
				}
			}
		}
	}
	if evals < 2000 {
		t.Fatalf("only %d evaluations", evals)
	}
}
