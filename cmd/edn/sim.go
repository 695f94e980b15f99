package main

import (
	"flag"
	"fmt"
	"io"

	"edn"
	"edn/internal/cliutil"
)

func cmdSim(fs *flag.FlagSet, _ io.Reader, w io.Writer) func() error {
	a, b, c, l := cliutil.GeometryFlags(fs, 64, 16, 4, 2)
	r := fs.Float64("r", 1, "offered request rate (uniform/hotspot traffic)")
	cycles := fs.Int("cycles", 1000, "cycles to simulate")
	seed := fs.Uint64("seed", 1, "RNG seed")
	pattern := fs.String("traffic", "uniform", "traffic: uniform, permutation, partial, hotspot, identity, bitreversal")
	hotFraction := fs.Float64("hot-fraction", 0.1, "fraction of requests aimed at output 0 (hotspot traffic)")
	arb := fs.String("arb", "priority", "arbitration: priority, roundrobin, random")
	asJSON := fs.Bool("json", false, "emit the result as JSON instead of text")
	return func() error {
		cfg, err := edn.New(*a, *b, *c, *l)
		if err != nil {
			return err
		}
		opts := edn.SimOptions{Cycles: *cycles, Seed: *seed}
		if opts.Factory, err = cliutil.ArbiterFactory(*arb, *seed); err != nil {
			return err
		}

		rng := edn.NewRand(*seed)
		var pat edn.Pattern
		switch *pattern {
		case "uniform":
			pat = edn.Uniform{Rate: *r, Rng: rng}
		case "permutation":
			pat = &edn.RandomPermutation{Rng: rng}
		case "partial":
			pat = &edn.PartialPermutation{Rate: *r, Rng: rng}
		case "hotspot":
			pat = edn.HotSpot{Rate: *r, Fraction: *hotFraction, Hot: 0, Rng: rng}
		case "identity":
			pat = edn.IdentityPattern(cfg.Inputs())
		case "bitreversal":
			fp, err := edn.BitReversalPattern(cfg.Inputs())
			if err != nil {
				return err
			}
			pat = fp
		default:
			return fmt.Errorf("unknown traffic %q", *pattern)
		}

		res, err := edn.MeasurePA(cfg, pat, opts)
		if err != nil {
			return err
		}
		if *asJSON {
			report := simReport{
				Network:         cfg.String(),
				Inputs:          cfg.Inputs(),
				Outputs:         cfg.Outputs(),
				Paths:           cfg.PathCount(),
				Crosspoints:     cfg.CrosspointCount(),
				Wires:           cfg.WireCount(),
				Traffic:         res.Pattern,
				Cycles:          res.Cycles,
				Arbitration:     *arb,
				Seed:            *seed,
				MeasuredPA:      res.PA,
				PAConfidence:    res.PACI,
				Bandwidth:       res.Bandwidth,
				OfferedRate:     res.OfferedRate,
				BlockedPerStage: res.BlockedPerStage,
			}
			if *pattern == "uniform" {
				pa := edn.PA(cfg, *r)
				report.ModelPA = &pa
			}
			return cliutil.WriteJSON(w, report)
		}
		fmt.Fprintf(w, "%v — %d inputs, %d outputs, %d paths/pair, %d crosspoints, %d wires\n",
			cfg, cfg.Inputs(), cfg.Outputs(), cfg.PathCount(), cfg.CrosspointCount(), cfg.WireCount())
		fmt.Fprintf(w, "traffic %s, %d cycles, %s arbitration, seed %d\n", res.Pattern, res.Cycles, *arb, *seed)
		fmt.Fprintf(w, "  measured  PA = %.4f (+-%.4f), bandwidth = %.1f req/cycle, offered rate = %.4f\n",
			res.PA, res.PACI, res.Bandwidth, res.OfferedRate)
		fmt.Fprintf(w, "  blocked per stage: %v\n", res.BlockedPerStage)
		switch *pattern {
		case "uniform":
			fmt.Fprintf(w, "  Equation 4    PA = %.4f (iid uniform model)\n", edn.PA(cfg, *r))
		case "permutation", "partial", "identity", "bitreversal":
			fmt.Fprintf(w, "  Equation 5    PAp = %.4f (permutation model at measured rate)\n",
				edn.PAPermutation(cfg, res.OfferedRate))
		}
		return nil
	}
}

// simReport is the machine-readable form of one measurement run.
type simReport struct {
	Network         string   `json:"network"`
	Inputs          int      `json:"inputs"`
	Outputs         int      `json:"outputs"`
	Paths           int      `json:"pathsPerPair"`
	Crosspoints     int64    `json:"crosspoints"`
	Wires           int64    `json:"wires"`
	Traffic         string   `json:"traffic"`
	Cycles          int      `json:"cycles"`
	Arbitration     string   `json:"arbitration"`
	Seed            uint64   `json:"seed"`
	MeasuredPA      float64  `json:"measuredPA"`
	PAConfidence    float64  `json:"paConfidence95"`
	Bandwidth       float64  `json:"bandwidthPerCycle"`
	OfferedRate     float64  `json:"offeredRate"`
	BlockedPerStage []int    `json:"blockedPerStage"`
	ModelPA         *float64 `json:"equation4PA,omitempty"`
}
