package faults

// The analytic side of degraded-mode operation: the paper's Theorem 3
// rate recursion r_{i+1} = E(r_i)/c assumes every wire of every bucket
// is alive and every wire of a stage carries the same rate. Faults
// break both assumptions, but the recursion survives if it is carried
// per wire: each switch sees the (now heterogeneous) rates of its own
// input wires, each bucket accepts up to its count of *live* wires, and
// the accepted expectation spreads evenly over exactly those wires.
// The number of requests aimed at one bucket is then Poisson-binomial
// rather than binomial; everything else is Section 3.2 unchanged.

// ExpectedUniformBandwidth returns the expected delivered requests per
// cycle of the masked network under uniform iid traffic at offered rate
// r per input, by the per-wire generalization of the Theorem 3
// recursion. With an empty mask it reduces exactly to
// analytic.Bandwidth(cfg, r); with faults it is the independence-
// approximation prediction the simulator cross-checks for small fault
// counts (the approximation error grows with fault correlation, as it
// does with load for the unfaulted closed form). m must be a compiled
// mask (nil has no topology); Compile(cfg, Set{}) is the fault-free
// one.
func ExpectedUniformBandwidth(m *Masks, r float64) float64 {
	if m == nil {
		panic("faults: ExpectedUniformBandwidth needs a compiled mask; Compile(cfg, Set{}) is the fault-free one")
	}
	cfg := m.Config()
	if cfg.L == 0 {
		panic("faults: ExpectedUniformBandwidth needs an EDN mask")
	}
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
		tab := m.st[s-1].Table
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

	// Crossbar stage: each live output port delivers iff at least one of
	// its switch's c input wires requests it (uniform over the c ports).
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

// ExpectedUniformPA returns the expected probability of acceptance of
// the masked network at offered rate r: expected bandwidth over
// expected offered requests. Requests arriving on dead inputs are
// offered and blocked (the engines count them at stage 1), so the
// denominator is the full input count.
func ExpectedUniformPA(m *Masks, r float64) float64 {
	if r == 0 {
		return 1
	}
	return ExpectedUniformBandwidth(m, r) / (r * float64(m.Config().Inputs()))
}

// expectedMin returns E[min(X, k)] where X counts the inputs requesting
// one particular bucket: input i requests it with probability
// rates[i] * invB, independently. pmf is scratch of length >= k holding
// the running Poisson-binomial distribution P[X = n] for n < k
// (truncated: mass at or above k never flows back below it, so
// E[min(X,k)] = k - sum_{n<k} (k-n) P[X=n] needs only these entries).
func expectedMin(rates []float64, invB float64, k int, pmf []float64) float64 {
	pmf = pmf[:k]
	for i := range pmf {
		pmf[i] = 0
	}
	pmf[0] = 1
	top := 0 // highest index with nonzero mass, capped at k-1
	for _, ri := range rates {
		q := ri * invB
		if q == 0 {
			continue
		}
		if top < k-1 {
			top++
		}
		for n := top; n >= 1; n-- {
			pmf[n] = pmf[n]*(1-q) + pmf[n-1]*q
		}
		pmf[0] *= 1 - q
	}
	e := float64(k)
	for n := 0; n < k; n++ {
		e -= float64(k-n) * pmf[n]
	}
	return e
}
