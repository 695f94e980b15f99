package faults

// The analytic side of degraded-mode operation: the paper's Theorem 3
// rate recursion r_{i+1} = E(r_i)/c assumes every wire of every bucket
// is alive and every wire of a stage carries the same rate. Faults
// break both assumptions, but the recursion survives if it is carried
// per wire: each switch sees the (now heterogeneous) rates of its own
// input wires, each bucket accepts up to its count of *live* wires, and
// the accepted expectation spreads evenly over exactly those wires.
// The number of requests aimed at one bucket is then Poisson-binomial
// rather than binomial; everything else is Section 3.2 unchanged. The
// step reads nothing but the fabric descriptor and its liveness rows,
// so one recursion serves every fabric the masks compile over.

// ExpectedUniformBandwidth returns the expected delivered requests per
// cycle of the masked fabric under uniform iid traffic at offered rate
// r per input, by the per-wire generalization of the Theorem 3
// recursion over the descriptor m was compiled against. Every stage is
// one step: for each switch and bucket it takes E[min(X, k)], X the
// requests the switch's input wires aim at the bucket and k the
// bucket's live wires, spreads it over those wires and carries it
// through the stage's table. The retire stage is the same step with
// one wire per bucket, summed over the live terminals.
//
// With an empty mask it reduces to the healthy closed forms: exactly
// analytic.Bandwidth(cfg, r) for an EDN, and dilated.Config.PA(r) * r *
// Ports() for a d-dilated delta (to rounding). With faults it is the
// independence-approximation prediction the simulator cross-checks (the
// approximation error grows with fault correlation, as it does with
// load for the healthy closed form). Like Config.PA's 1 - (1 - r)^d, it
// treats the live sub-wires of a dilated port's final group as
// independent requesters, so killing one of them can raise the
// prediction while the measured throughput stays put. m must be a
// compiled mask (nil has no descriptor); Compile(cfg, Set{}) is an
// EDN's fault-free one.
func ExpectedUniformBandwidth(m *Masks, r float64) float64 {
	if m == nil {
		panic("faults: ExpectedUniformBandwidth needs a compiled mask; Compile(cfg, Set{}) is the fault-free one")
	}
	rates := make([]float64, m.st[0].Switches*m.st[0].Width)
	for i := range rates {
		if m.liveIn == nil || m.liveIn[i] {
			rates[i] = r
		}
	}
	wires := 0
	for _, g := range m.st {
		wires = max(wires, g.Wires)
	}
	pmf := make([]float64, wires)
	delivered := 0.0
	for s, g := range m.st {
		row := m.LiveStageOutputs(s + 1)
		var next []float64 // nil at the retire stage
		if s+1 < len(m.st) {
			next = make([]float64, m.st[s+1].Switches*m.st[s+1].Width)
		}
		invB := 1 / float64(g.Buckets)
		for sw := 0; sw < g.Switches; sw++ {
			in := rates[sw*g.Width : (sw+1)*g.Width]
			for d := 0; d < g.Buckets; d++ {
				base := (sw*g.Buckets + d) * g.Wires
				kLive := g.Wires
				if row != nil {
					kLive = 0
					for _, live := range row[base : base+g.Wires] {
						if live {
							kLive++
						}
					}
					if kLive == 0 {
						continue
					}
				}
				e := expectedMin(in, invB, kLive, pmf)
				if next == nil {
					delivered += e
					continue
				}
				perWire := e / float64(kLive)
				for o := base; o < base+g.Wires; o++ {
					if row != nil && !row[o] {
						continue
					}
					down := o
					if g.Table != nil {
						down = int(g.Table[o])
					}
					next[down] = perWire
				}
			}
		}
		rates = next
	}
	return delivered
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
