package edn

import (
	"edn/internal/analytic"
	"edn/internal/anatomy"
	"edn/internal/closedloop"
	"edn/internal/design"
	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
	"edn/internal/lifecycle"
	"edn/internal/mimd"
	"edn/internal/netlist"
	"edn/internal/probe"
	"edn/internal/queuesim"
	"edn/internal/routing"
	"edn/internal/simd"
	"edn/internal/simulate"
	"edn/internal/stats"
	"edn/internal/switchfab"
	"edn/internal/topology"
	"edn/internal/traffic"
	"edn/internal/xrand"
)

// ---------------------------------------------------------------------------
// Structure (Section 2)

// Config identifies an EDN(a,b,c,l): l stages of H(a -> b x c) hyperbars
// followed by a stage of c x c crossbars. See internal/topology for the
// full method set (Inputs, Outputs, costs, wiring, path enumeration).
type Config = topology.Config

// Family is a fixed-switch family EDN(a,b,c,*) swept over stage count,
// as in Figures 7, 8 and 11.
type Family = topology.Family

// New validates and returns an EDN(a,b,c,l) configuration.
func New(a, b, c, l int) (Config, error) { return topology.New(a, b, c, l) }

// NewCrossbar returns EDN(n,n,1,1), which degenerates to an n x n crossbar.
func NewCrossbar(n int) (Config, error) { return topology.NewCrossbar(n) }

// NewDelta returns EDN(a,b,1,l): Patel's a^l x b^l delta network.
func NewDelta(a, b, l int) (Config, error) { return topology.NewDelta(a, b, l) }

// Hyperbar is the H(a -> b x c) switch of Definition 1, the generalized
// MasPar MP-1 router switch.
type Hyperbar = switchfab.Hyperbar

// Crossbar is an n x m crosspoint switch (the c=1 hyperbar).
type Crossbar = switchfab.Crossbar

// Arbiter resolves bucket oversubscription inside a switch.
type Arbiter = switchfab.Arbiter

// PriorityArbiter is the paper's input-label priority rule (Figure 2).
type PriorityArbiter = switchfab.PriorityArbiter

// RoundRobinArbiter rotates priority across cycles (fairness ablation).
type RoundRobinArbiter = switchfab.RoundRobinArbiter

// RandomArbiter draws a fresh random arbitration order each cycle.
type RandomArbiter = switchfab.RandomArbiter

// ---------------------------------------------------------------------------
// Routing (Section 2, Lemma 1, Corollary 2)

// Tag is a decoded destination tag D = d_(l-1)...d_0 x.
type Tag = routing.Tag

// EncodeTag decodes destination label dst into its routing tag.
func EncodeTag(cfg Config, dst int) (Tag, error) { return routing.Encode(cfg, dst) }

// Trace is a full per-stage record of one message's path (Lemma 1 walk).
type Trace = routing.Trace

// Hop is one stage of a Trace.
type Hop = routing.Hop

// TraceRoute walks a message from src to dst under the standard
// retirement order, taking choices as the free per-stage wire choices.
func TraceRoute(cfg Config, src, dst int, choices []int) (Trace, error) {
	return routing.TraceRoute(cfg, src, dst, choices)
}

// RetirementOrder is a Corollary 2 digit-retirement order together with
// its compensating output permutation (Figure 6).
type RetirementOrder = routing.RetirementOrder

// StandardOrder retires d_(l-i) at stage i (the paper's default).
func StandardOrder(cfg Config) RetirementOrder { return routing.StandardOrder(cfg) }

// ReversedOrder retires d_0 first — the Figure 6 construction.
func ReversedOrder(cfg Config) RetirementOrder { return routing.ReversedOrder(cfg) }

// NewRetirementOrder builds a custom order from a permutation of [0, l).
func NewRetirementOrder(cfg Config, perm []int) (RetirementOrder, error) {
	return routing.NewRetirementOrder(cfg, perm)
}

// ---------------------------------------------------------------------------
// Closed-form performance models (Sections 3-5)

// PA evaluates Equation 4: the probability of acceptance of cfg under
// uniform independent traffic at offered rate r.
func PA(cfg Config, r float64) float64 { return analytic.PA(cfg, r) }

// PAPermutation evaluates Equation 5 (Lemma 2-consistent form): the
// probability of acceptance when the requests form a permutation.
func PAPermutation(cfg Config, r float64) float64 { return analytic.PAPermutation(cfg, r) }

// CrossbarPA is the full-crossbar reference curve of Figures 7 and 8.
func CrossbarPA(n int, r float64) float64 { return analytic.CrossbarPA(n, r) }

// Bandwidth returns expected satisfied requests per cycle at rate r.
func Bandwidth(cfg Config, r float64) float64 { return analytic.Bandwidth(cfg, r) }

// StageRates returns the per-wire request rate after every stage.
func StageRates(cfg Config, r float64) []float64 { return analytic.StageRates(cfg, r) }

// MIMDModel is the Section 4 steady state (Equations 7-11).
type MIMDModel = analytic.MIMDResult

// Resubmission solves the Section 4 Markov fixed point for a shared
// memory system in which blocked requests are resubmitted until accepted.
func Resubmission(cfg Config, r float64) (MIMDModel, error) {
	return analytic.Resubmission(cfg, r, analytic.ResubmissionOptions{})
}

// PermutationTimeModel is the Section 5.1 permutation-time estimate.
type PermutationTimeModel = analytic.PermutationTime

// ExpectedPermutationTime evaluates the Section 5.1 model (q/PA(1) + J)
// for a square network serving clusters of q PEs.
func ExpectedPermutationTime(cfg Config, q int) (PermutationTimeModel, error) {
	return analytic.ExpectedPermutationTime(cfg, q)
}

// ---------------------------------------------------------------------------
// Cycle-level simulation

// Network, the cycle-level view of the packet engine's depth-0 Drop
// corner, lives in network.go.

// ArbiterFactory builds one arbiter per physical switch.
type ArbiterFactory = switchfab.ArbiterFactory

// SimOptions configures a Monte-Carlo measurement run.
type SimOptions = simulate.Options

// SimResult is an aggregated measurement.
type SimResult = simulate.Result

// MeasurePA measures acceptance for an arbitrary traffic pattern.
func MeasurePA(cfg Config, pattern Pattern, opts SimOptions) (SimResult, error) {
	return simulate.MeasurePA(cfg, pattern, opts)
}

// MeasureUniformPA measures acceptance under uniform traffic at rate r,
// the Monte-Carlo counterpart of PA.
func MeasureUniformPA(cfg Config, r float64, opts SimOptions) (SimResult, error) {
	return simulate.MeasureUniformPA(cfg, r, opts)
}

// MeasurePermutationPA measures acceptance under fresh random
// permutations, the counterpart of PAPermutation.
func MeasurePermutationPA(cfg Config, opts SimOptions) (SimResult, error) {
	return simulate.MeasurePermutationPA(cfg, opts)
}

// StageRateResult compares measured per-stage survivor rates with the
// Theorem 3 recursion.
type StageRateResult = simulate.StageRateResult

// MeasureStageRates measures the per-wire request rate at every stage
// boundary under uniform traffic — the element-wise validation of the
// r_{i+1} = E(r_i)/c recursion.
func MeasureStageRates(cfg Config, r float64, opts SimOptions) (StageRateResult, error) {
	return simulate.MeasureStageRates(cfg, r, opts)
}

// MultipassResult reports a fixed request set drained over repeated
// network passes.
type MultipassResult = simulate.MultipassResult

// RouteMultipass re-offers blocked requests pass after pass until every
// message of dest is delivered — how an SIMD machine actually completes
// a permutation on a blocking network.
func RouteMultipass(cfg Config, dest []int, factory ArbiterFactory, maxPasses int) (MultipassResult, error) {
	return simulate.RouteMultipass(cfg, dest, factory, maxPasses)
}

// MIMDOptions configures a Section 4 system simulation.
type MIMDOptions = mimd.Options

// MIMDMeasured is the measured steady state of the resubmission system.
type MIMDMeasured = mimd.Result

// SimulateMIMD runs the processor-memory system with resubmission, the
// Monte-Carlo counterpart of Resubmission.
func SimulateMIMD(cfg Config, r float64, opts MIMDOptions) (MIMDMeasured, error) {
	return mimd.Simulate(cfg, r, opts)
}

// ---------------------------------------------------------------------------
// Buffered packet-level queueing simulation
//
// One packet engine measures both networks of the paper's comparison.
// A Net names the network and its queue regime — an EDNNet or the
// DilatedNet counterpart that spends the same wire budget on link
// replication — and every measurement takes one, here and in the fault
// and lifecycle sections below, so the two sides of a comparison are
// the same harness under the same Options, with identical per-input
// traffic replays, and each result type labels either network through
// its Network method.

// QueueNetwork is an instantiated buffered EDN: per-wire FIFOs at every
// stage input, head-of-line arbitration per switch, one hop per cycle,
// and per-packet latency measurement. See internal/queuesim for the
// depth and policy semantics (depth-1 Drop reproduces Network exactly;
// depth-0 Drop is Network's corner, and depth-0 Backpressure the
// unbuffered closed-loop resubmission corner).
type QueueNetwork = queuesim.Network

// QueueOptions configures a queueing network on either fabric (FIFO
// depth, blocked-packet policy, arbitration, latency histogram shape,
// faults). Its Tables field takes a prebuilt fabric, as a
// GeometryCache hands them out, so a network shares the cached
// interstage tables instead of building its own.
type QueueOptions = queuesim.Options

// QueuePolicy selects the blocked-packet discipline.
type QueuePolicy = queuesim.Policy

// QueueBackpressure retains blocked packets at their FIFO head (lossless
// store-and-forward); QueueDrop discards them (circuit-switched).
const (
	QueueBackpressure = queuesim.Backpressure
	QueueDrop         = queuesim.Drop
)

// QueueUnbounded selects per-wire FIFOs that grow without limit.
const QueueUnbounded = queuesim.Unbounded

// QueueTotals are a queueing network's lifetime packet counters; they
// satisfy Injected == Refused + Delivered + Dropped + Queued() after
// every cycle.
type QueueTotals = queuesim.Totals

// NewQueueNetwork builds a buffered packet-level network over cfg.
func NewQueueNetwork(cfg Config, opts QueueOptions) (*QueueNetwork, error) {
	return queuesim.New(cfg, opts)
}

// Net is a network under measurement plus its queue regime: an EDNNet
// or a DilatedNet.
type Net = simulate.Net

// EDNNet is an EDN measured on the packet engine under its
// QueueOptions.
type EDNNet = simulate.EDN

// DilatedNet is a dilated delta measured on the packet engine under its
// DilatedQueueOptions.
type DilatedNet = simulate.Dilated

// LatencyResult aggregates one queueing measurement: throughput plus
// P50/P95/P99 delivery latency. Config or Dilated names the measured
// network.
type LatencyResult = simulate.LatencyResult

// MeasureLatency runs pattern through net's packet engine and reports
// throughput and the latency distribution after warmup.
func MeasureLatency(net Net, pattern Pattern, opts SimOptions) (LatencyResult, error) {
	return simulate.MeasureLatency(net, pattern, opts)
}

// LoadPattern builds the traffic source for one offered-load point of a
// sweep; nil selects uniform iid traffic.
type LoadPattern = simulate.LoadPattern

// BurstyLoad returns a LoadPattern of Markov on/off sources with the
// given mean burst length and a long-run load matching the sweep axis.
func BurstyLoad(meanBurst float64) LoadPattern { return simulate.BurstyLoad(meanBurst) }

// SaturationSweep measures the latency-vs-load curve: one LatencyResult
// per offered load, each load's cycle budget split across parallel
// shards and merged exactly. The same Options and shard count drive an
// EDN and its counterpart with identical per-input injection replays.
// shards <= 0 selects GOMAXPROCS.
func SaturationSweep(net Net, loads []float64, src LoadPattern, opts SimOptions, shards int) ([]LatencyResult, error) {
	return simulate.SaturationSweep(net, loads, src, opts, shards)
}

// DrainResult reports a closed-loop drain of q preloaded permutations
// per input, the measured counterpart of ExpectedPermutationTime.
type DrainResult = simulate.DrainResult

// DrainPermutations preloads q permutation packets per input and runs
// the network closed-loop until all are delivered. The network must be
// square; at d=1 a dilated delta's drain equals the plain delta's bit
// for bit.
func DrainPermutations(net Net, q int, opts SimOptions) (DrainResult, error) {
	return simulate.DrainPermutations(net, q, opts)
}

// Histogram is the fixed-bucket streaming latency histogram with
// nearest-rank quantiles and exact shard merging.
type Histogram = stats.Histogram

// NewHistogram returns a histogram of `buckets` bins of the given width.
func NewHistogram(buckets int, width float64) *Histogram { return stats.NewHistogram(buckets, width) }

// ---------------------------------------------------------------------------
// Fault injection and degraded-mode operation

// FaultSet is a declarative fault specification: dead switches, dead
// stage-input wires and dead switch output ports. The zero value is the
// fault-free network. It names components of any fabric descriptor; a
// dilated delta's sub-wires are its output ports.
type FaultSet = faults.Set

// FaultSwitchID names one switch (1-based stage; stage l+1 is the
// output crossbars).
type FaultSwitchID = faults.SwitchID

// FaultWireID names one wire at a stage boundary (boundary 0 is the
// network inputs).
type FaultWireID = faults.WireID

// FaultPortID names one switch output port; on the crossbar stage it is
// a network output terminal, and on a dilated delta it is a sub-wire.
type FaultPortID = faults.PortID

// FaultMasks is a compiled fault set: the per-stage availability rows
// the engine routes around, on either fabric. Compile once, share
// freely.
type FaultMasks = faults.Masks

// FaultMode selects the failing component population of a sampler.
type FaultMode = faults.Mode

// FaultWires kills interstage wires (bucket multipath territory);
// FaultSwitches kills whole switches; FaultMixed does both.
const (
	FaultWires    = faults.WireFaults
	FaultSwitches = faults.SwitchFaults
	FaultMixed    = faults.MixedFaults
)

// ParseFaultMode maps a flag value ("wires", "switches", "mixed") onto
// a FaultMode.
func ParseFaultMode(s string) (FaultMode, error) { return faults.ParseMode(s) }

// CompileFaults validates a fault set against cfg and folds it into
// availability masks.
func CompileFaults(cfg Config, set FaultSet) (*FaultMasks, error) { return faults.Compile(cfg, set) }

// BernoulliFaults samples each component of the mode's population dead
// independently with probability p.
func BernoulliFaults(cfg Config, mode FaultMode, p float64, rng *Rand) FaultSet {
	return faults.Bernoulli(cfg, mode, p, rng)
}

// BlastFaults kills the switches within radius of center in one stage —
// the correlated board/cabinet failure pattern.
func BlastFaults(cfg Config, stage, center, radius int) (FaultSet, error) {
	return faults.Blast(cfg, stage, center, radius)
}

// FaultPlan is a nested family of fault sets: At(f1) is a subset of
// At(f2) whenever f1 <= f2, so sweeps degrade one fixed failure story.
type FaultPlan = faults.Plan

// NewFaultPlan draws the per-component severities for cfg.
func NewFaultPlan(cfg Config, mode FaultMode, rng *Rand) *FaultPlan {
	return faults.NewPlan(cfg, mode, rng)
}

// ExpectedDegradedBandwidth evaluates the per-wire generalization of
// the Theorem 3 recursion over the masked fabric descriptor: the
// analytic prediction of delivered requests per cycle under uniform
// traffic at rate r, for an EDN and a dilated delta alike. With an
// empty compiled mask it equals Bandwidth(cfg, r) for an EDN and
// DilatedDelta.PA(r) * r * Ports() for a dilated delta; m must come
// from CompileFaults or CompileDilatedMasks (a nil mask has no
// descriptor to walk).
func ExpectedDegradedBandwidth(m *FaultMasks, r float64) float64 {
	return faults.ExpectedUniformBandwidth(m, r)
}

// AvailabilityOptions configures a degraded-mode sweep (fault-fraction
// axis, failing population, offered load).
type AvailabilityOptions = simulate.AvailabilityOptions

// AvailabilityResult is one point of the degradation curve: delivered
// bandwidth, reachability and latency tail at one fault fraction.
// Config or Dilated names the measured network.
type AvailabilityResult = simulate.AvailabilityResult

// AvailabilitySweep measures the graceful-degradation curve of an
// EDNNet or a DilatedNet: one AvailabilityResult per fault fraction,
// each averaged over parallel shards that grow nested fault plans under
// identical traffic replays. A dilated delta's failing population is
// its sub-wires, so it takes FaultWires only. The same Options pair an
// EDN's sweep with its counterpart's. shards <= 0 selects GOMAXPROCS;
// src nil selects uniform traffic.
func AvailabilitySweep(net Net, aopts AvailabilityOptions, src LoadPattern, opts SimOptions, shards int) ([]AvailabilityResult, error) {
	return simulate.AvailabilitySweep(net, aopts, src, opts, shards)
}

// ---------------------------------------------------------------------------
// Lifecycle simulation: time-varying faults, repair and availability

// LifecycleSpec describes a failure/repair process: per-component MTBF
// and MTTR (exponential or deterministic holding times) plus optional
// correlated blast arrivals. See internal/lifecycle.
type LifecycleSpec = lifecycle.Spec

// LifecycleProcess is an instantiated failure/repair process; each Step
// advances one epoch and returns the fault set now in effect.
type LifecycleProcess = lifecycle.Process

// LifecycleTiming selects the holding-time distribution.
type LifecycleTiming = lifecycle.Timing

// LifecycleExponential draws geometric (memoryless) holding times;
// LifecycleDeterministic uses fixed staggered maintenance periods.
const (
	LifecycleExponential   = lifecycle.Exponential
	LifecycleDeterministic = lifecycle.Deterministic
)

// ParseLifecycleTiming maps a flag value ("exponential", "deterministic")
// onto a LifecycleTiming.
func ParseLifecycleTiming(s string) (LifecycleTiming, error) { return lifecycle.ParseTiming(s) }

// NewLifecycleProcess validates spec and instantiates the process over
// cfg with phases drawn from rng.
func NewLifecycleProcess(cfg Config, spec LifecycleSpec, rng *Rand) (*LifecycleProcess, error) {
	return lifecycle.New(cfg, spec, rng)
}

// TimeSeries is the per-epoch accumulator behind lifetime results: one
// streaming mean/CI per epoch with exact cross-shard merging.
type TimeSeries = stats.TimeSeries

// LifetimeOptions configures a lifetime simulation (epoch count, dwell
// cycles per epoch, the failure/repair spec, offered load).
type LifetimeOptions = simulate.LifetimeOptions

// LifetimeResult is the availability-over-time view: per-epoch
// bandwidth/reachability/latency series plus lifetime aggregates
// (lifetime-average bandwidth, time below threshold, recovery
// half-life). Config or Dilated names the measured network.
type LifetimeResult = simulate.LifetimeResult

// LifetimeSweep simulates a network's whole service life under
// failure/repair churn: running engines are re-masked in place between
// epochs (no rebuilds; queue and arbiter state survive every swap) and
// each epoch's metrics are recorded into exact-merge time series. A
// DilatedNet churns its sub-wires on lopts.Spec's MTBF/MTTR/Timing; a
// Spec.Mode other than FaultWires, a blast rate or a repair window
// above 1 on it is an error. The same Options pair an EDN's lifetime
// with its counterpart's. shards <= 0 selects GOMAXPROCS; src nil
// selects uniform traffic.
func LifetimeSweep(net Net, lopts LifetimeOptions, src LoadPattern, opts SimOptions, shards int) (LifetimeResult, error) {
	return simulate.LifetimeSweep(net, lopts, src, opts, shards)
}

// ---------------------------------------------------------------------------
// SIMD clustering (Section 5)

// RAEDN is a Restricted-Access EDN: p = b^l*c clusters of q PEs sharing
// one network port each.
type RAEDN = simd.System

// NewRAEDN builds RA-EDN(b,c,l,q) over the network EDN(bc,b,c,l).
func NewRAEDN(b, c, l, q int) (RAEDN, error) { return simd.RAEDN(b, c, l, q) }

// MasParMP1 returns RA-EDN(16,4,2,16): the 16K-PE MasPar MP-1 router.
func MasParMP1() RAEDN { return simd.MasParMP1() }

// Scheduler selects each cluster's offered message per cycle.
type Scheduler = simd.Scheduler

// RandomScheduler is the paper's random schedule.
type RandomScheduler = simd.RandomScheduler

// FIFOScheduler offers each cluster's oldest message.
type FIFOScheduler = simd.FIFOScheduler

// GreedyDistinctScheduler prefers pairwise-distinct destination clusters.
type GreedyDistinctScheduler = simd.GreedyDistinctScheduler

// RouteOptions configures a permutation-routing run.
type RouteOptions = simd.RouteOptions

// RouteResult reports one permutation delivery.
type RouteResult = simd.RouteResult

// RoutePermutation delivers a permutation over the system's PEs and
// returns the cycle count the Section 5.1 model estimates.
func RoutePermutation(sys RAEDN, perm []int, opts RouteOptions) (RouteResult, error) {
	return simd.RoutePermutation(sys, perm, opts)
}

// ---------------------------------------------------------------------------
// Traffic and randomness

// Pattern produces one request vector per cycle.
type Pattern = traffic.Pattern

// IntoGenerator is a Pattern that can fill a caller-provided request
// vector in place, the traffic-side half of the allocation-free
// steady-state loop around Network.RouteCycleInto. All built-in patterns
// implement it (RandomPermutation and PartialPermutation by pointer).
type IntoGenerator = traffic.IntoGenerator

// Uniform is iid uniform traffic at a given rate (Section 3.2).
type Uniform = traffic.Uniform

// RandomPermutation draws a fresh permutation each cycle.
type RandomPermutation = traffic.RandomPermutation

// PartialPermutation keeps each permutation entry with a given rate.
type PartialPermutation = traffic.PartialPermutation

// HotSpot concentrates a fraction of requests on one output (NUTS).
type HotSpot = traffic.HotSpot

// MarkovOnOff is the two-state bursty source: geometrically distributed
// ON bursts and OFF silences with long-run load Rate*POn/(POn+POff).
type MarkovOnOff = traffic.MarkovOnOff

// MovingHotSpot is a hotspot whose hot output advances by Stride every
// Period cycles — congestion that re-aims before queues drain.
type MovingHotSpot = traffic.MovingHotSpot

// FixedPattern replays a static request vector every cycle.
type FixedPattern = traffic.Fixed

// IdentityPattern returns the identity permutation on n ports.
func IdentityPattern(n int) FixedPattern { return traffic.Identity(n) }

// BitReversalPattern returns the bit-reversal permutation on n ports.
func BitReversalPattern(n int) (FixedPattern, error) { return traffic.BitReversal(n) }

// Rand is the deterministic SplitMix64 generator used everywhere.
type Rand = xrand.Rand

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// ---------------------------------------------------------------------------
// Dilated-delta baseline (Section 1 comparison)

// DilatedDelta is a d-dilated square delta network, the multipath
// alternative whose wire cost the introduction compares EDNs against.
type DilatedDelta = dilated.Config

// NewDilatedDelta builds a d-dilated radix-b delta of l stages.
func NewDilatedDelta(b, d, l int) (DilatedDelta, error) { return dilated.New(b, d, l) }

// DilatedCounterpart returns the dilated delta comparable to an EDN:
// same input port count, dilation equal to the EDN's bucket capacity.
func DilatedCounterpart(cfg Config) (DilatedDelta, error) { return dilated.Counterpart(cfg) }

// BernoulliDilatedSubWires kills each dilated sub-wire independently
// with probability p; sub-wire (boundary i, group g, wire w) is the
// FaultPortID{i, g/b, g%b, w}.
func BernoulliDilatedSubWires(cfg DilatedDelta, p float64, rng *Rand) FaultSet {
	return dilatedsim.SubWires(cfg).Bernoulli(p, rng)
}

// ---------------------------------------------------------------------------
// Measured dilated counterpart (the dilated fabric of the packet engine)
//
// The dilated delta's engine and its sub-wire masks over the one fault
// model. Every measurement takes the counterpart as a DilatedNet.

// DilatedQueueNetwork is an instantiated buffered d-dilated delta: the
// measured side of every -dilated comparison. It is the QueueNetwork
// engine built from the dilated fabric's descriptor — per-sub-wire ring
// FIFOs, Drop/Backpressure, head-of-line arbitration, in-place fault
// mask swaps — and at d=1 reproduces the plain-delta QueueNetwork bit
// for bit. See internal/dilatedsim.
type DilatedQueueNetwork = dilatedsim.Network

// DilatedQueueOptions is QueueOptions under the dilated name: one
// configuration serves both fabrics, its Faults taking DilatedMasks
// and its Tables the dilated fabric.
type DilatedQueueOptions = dilatedsim.Options

// NewDilatedQueueNetwork builds a buffered packet-level network over a
// dilated delta configuration.
func NewDilatedQueueNetwork(cfg DilatedDelta, opts DilatedQueueOptions) (*DilatedQueueNetwork, error) {
	return dilatedsim.New(cfg, opts)
}

// DilatedMasks is a compiled dilated fault set: FaultMasks over the
// dilated fabric's descriptor, whose dead sub-wires are its dead output
// ports (DeadPorts).
type DilatedMasks = dilatedsim.Masks

// CompileDilatedMasks compiles dead sub-wires into engine availability
// rows; any other component is an error. DilatedQueueNetwork.UpdateFaults
// swaps them in place, and ExpectedDegradedBandwidth reads them.
func CompileDilatedMasks(cfg DilatedDelta, set FaultSet) (*DilatedMasks, error) {
	return dilatedsim.Compile(cfg, set)
}

// ---------------------------------------------------------------------------
// Closed-loop request/response workload
//
// Everything above measures open-loop traffic: sources inject and
// deliveries are the end of the story. The closed-loop layer models
// what a processor actually does with an interconnect — issue a memory
// request, wait for the reply, retry on timeout — over TWO fabric
// instances of the same network (requests forward, replies back through
// the output/input concentrator), with per-source outstanding-request
// windows, timeout/retry/give-up accounting, fault-fed avoidance of
// unreachable memory ports, and an SLA response-deadline curve that
// prices degradation in delivered-work terms.

// ClosedLoopEngine is the packet-fabric seam the closed-loop layer
// drives: both QueueNetwork and DilatedQueueNetwork satisfy it.
type ClosedLoopEngine = closedloop.Engine

// ClosedLoopOptions configures the workload: window W, demand rate,
// service time, timeout, retry policy and backoff, backlog bound, SLA
// curve, seed.
type ClosedLoopOptions = closedloop.Options

// ClosedLoop is a running request/response workload over a forward and
// a return fabric.
type ClosedLoop = closedloop.Loop

// ClosedLoopLedger is the request-level conservation ledger: Offered ==
// Shed + Backlogged + Issued and Issued == Completed + GivenUp +
// InFlight + RetryWaiting at every cycle.
type ClosedLoopLedger = closedloop.Ledger

// SLA is a response-deadline curve: full credit at or under Zero,
// linear decay to none past Deadline (a step when Zero == Deadline; the
// zero SLA credits every completion).
type SLA = closedloop.SLA

// RetryPolicy selects how timed-out requests are re-issued.
type RetryPolicy = closedloop.RetryPolicy

// Retry policies: immediate re-issue, or capped exponential backoff
// with deterministic jitter.
const (
	RetryImmediate = closedloop.RetryImmediate
	RetryBackoff   = closedloop.RetryBackoff
)

// ParseRetryPolicy is the inverse of RetryPolicy.String, for flags.
func ParseRetryPolicy(s string) (RetryPolicy, error) {
	return closedloop.ParseRetryPolicy(s)
}

// NewClosedLoop wires a closed-loop workload over two engine instances
// of the same fabric (inputs sources, outputs memory ports; outputs
// must be a multiple of inputs, the concentrator ratio).
func NewClosedLoop(fwd, rev ClosedLoopEngine, inputs, outputs int, opts ClosedLoopOptions) (*ClosedLoop, error) {
	return closedloop.New(fwd, rev, inputs, outputs, opts)
}

// ClosedLoopResult is one measured closed-loop operating point:
// goodput, SLA attainment, end-to-end latency quantiles and the full
// retry/timeout ledger.
type ClosedLoopResult = simulate.ClosedLoopResult

// MeasureClosedLoop sweeps the closed-loop workload over net at each
// demand rate, sharded and exactly merged like SaturationSweep;
// identical Options replay identical demand on either network.
func MeasureClosedLoop(net Net, rates []float64, lo ClosedLoopOptions, opts SimOptions, shards int) ([]ClosedLoopResult, error) {
	return simulate.MeasureClosedLoop(net, rates, lo, opts, shards)
}

// ClosedLoopLifetimeResult is the closed-loop availability-over-time
// view: per-epoch goodput/SLA/latency/retry series plus the
// SLA-weighted cost-of-downtime aggregate.
type ClosedLoopLifetimeResult = simulate.ClosedLoopLifetimeResult

// ClosedLoopLifetimeSweep runs the closed-loop workload over net's
// whole service life under lopts.Spec churn on both fabrics (sub-wire
// churn on a dilated delta, which rejects the settings LifetimeSweep
// rejects on it), avoidance list refreshed from
// forward-fabric reachability every epoch, request conservation
// asserted at every epoch boundary. Identical Options replay-match an
// EDN and its counterpart.
func ClosedLoopLifetimeSweep(net Net, lopts LifetimeOptions, lo ClosedLoopOptions, opts SimOptions, shards int) (ClosedLoopLifetimeResult, error) {
	return simulate.ClosedLoopLifetimeSweep(net, lopts, lo, opts, shards)
}

// ---------------------------------------------------------------------------
// Observability: flight-recorder probes and metrics export
//
// A Probe attaches to any of the four engines (Network, QueueNetwork,
// DilatedQueueNetwork, ClosedLoop via SetProbe) and records two things
// without perturbing the run: sampled per-packet flight traces (every
// ~Nth accepted injection gets a hop-by-hop event record) and
// per-stage, per-cycle heat series (occupancy, head-of-line blocking,
// parked and dropped counts). A nil probe keeps every hot path
// bit-for-bit identical and allocation-free. The simulate sweeps
// accept SimOptions.Probe and surface the merged ProbeReport on their
// results; edn trace (cmd/edn) turns reports into hop-by-hop breakdowns.

// Probe is a flight recorder for one engine instance.
type Probe = probe.Probe

// ProbeOptions configures sampling rate, trace ring capacity and heat
// binning. The zero value of SampleEvery disables tracing (heat only).
type ProbeOptions = probe.Options

// NewProbe builds a probe; attach it with an engine's SetProbe.
func NewProbe(opts ProbeOptions) *Probe { return probe.New(opts) }

// ProbeReport is a probe's collected output: sampled traces plus heat
// series, mergeable across shards.
type ProbeReport = probe.Report

// PacketTrace is one sampled packet's recorded flight: identity,
// injection, and the per-hop event list.
type PacketTrace = probe.Trace

// PacketHop is one recorded event of a sampled packet's flight.
type PacketHop = probe.Hop

// ProbeEvent enumerates the recordable flight events.
type ProbeEvent = probe.Event

// Flight events: packet-level inject/traverse/block/park/drop/strand/
// deliver, and closed-loop request-level issue/timeout/retry/complete/
// give-up.
const (
	EvInject   = probe.EvInject
	EvTraverse = probe.EvTraverse
	EvBlock    = probe.EvBlock
	EvPark     = probe.EvPark
	EvDrop     = probe.EvDrop
	EvStrand   = probe.EvStrand
	EvDeliver  = probe.EvDeliver
	EvIssue    = probe.EvIssue
	EvTimeout  = probe.EvTimeout
	EvRetry    = probe.EvRetry
	EvComplete = probe.EvComplete
	EvGiveUp   = probe.EvGiveUp
)

// Heatmap is the per-stage, per-bin heat series a probe folds each
// cycle's occupancy and blocking scratch into.
type Heatmap = probe.Heat

// MetricsRegistry is the one metrics surface of the CLI exporters and
// the daemon: callers register counter, gauge and histogram samples at
// one moment, and it exports them deterministically as JSON lines or
// Prometheus text.
type MetricsRegistry = probe.Registry

// MetricLabel is one metric dimension (key="value").
type MetricLabel = probe.Label

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return probe.NewRegistry() }

// ---------------------------------------------------------------------------
// Latency anatomy: causal time attribution and congestion-tree tomography
//
// Where a Probe records what happened, an AnatomyCollector explains
// where the time went: every delivered, dropped or stranded packet's
// end-to-end latency is decomposed per stage into queue-wait,
// head-of-line blocking and service, blocked heads are attributed to
// the downstream FIFO or terminal that refused them, and the per-cycle
// blocked-by edges are folded into congestion trees (root switch,
// depth, spread, lifetime). Attach with an engine's SetAnatomy; the
// same non-perturbation contract as probes holds (nil = one branch per
// site, BenchmarkAnatomyOff pins 0 allocs/op; attached anatomy never
// moves a measured number). Job-level access: the JobSpec "explain"
// section plus RunOptions.OnExplain, the serve layer's /v1/explain,
// or edn explain (cmd/edn).

// AnatomyCollector accumulates latency anatomy for one engine run.
type AnatomyCollector = anatomy.Collector

// AnatomyOptions configures a collector (top-K list sizes, dwell
// histogram shape, test callbacks).
type AnatomyOptions = anatomy.Options

// NewAnatomyCollector builds a collector; attach it with an engine's
// SetAnatomy and read it with Report after the run.
func NewAnatomyCollector(opts AnatomyOptions) *AnatomyCollector { return anatomy.New(opts) }

// AnatomyReport is a collector's mergeable output: per-class and
// per-stage wait/block/service ledgers, per-switch blame, top-K
// congestion trees, per-source/per-destination flows, and the
// closed-loop request split.
type AnatomyReport = anatomy.Report

// StageAnatomy is one stage's wait/block/service/blame ledger row.
type StageAnatomy = anatomy.StageTotals

// AnatomyClassTotals aggregates the attributed time of one packet
// class (delivered, dropped or stranded).
type AnatomyClassTotals = anatomy.ClassTotals

// CongestionTree is one detected congestion tree: root switch, depth,
// spread, lifetime and total blocked ring-cycles.
type CongestionTree = anatomy.Tree

// RequestTimeSplit is the closed-loop five-way request-time
// decomposition (client-queue / retry-wait / forward-fabric / service
// / reply-fabric).
type RequestTimeSplit = anatomy.RequestSplit

// TraceSplit is one stage-visit of a sampled trace annotated with its
// wait/block/service share (see SplitTraceHops).
type TraceSplit = anatomy.TraceSplit

// SplitTraceHops decomposes a sampled packet trace's hops into
// per-stage wait/block/service segments — the per-packet view of the
// anatomy ledgers, used by edn trace -explain.
func SplitTraceHops(hops []PacketHop) []TraceSplit { return anatomy.SplitHops(hops) }

// ---------------------------------------------------------------------------
// Design-space exploration and physical netlists

// DesignPoint is one candidate network on the PA/cost axes.
type DesignPoint = design.Point

// EnumerateDesigns returns every square EDN with the given port count
// and buildable switch width, sorted by descending PA(1).
func EnumerateDesigns(ports, maxSwitch int) ([]DesignPoint, error) {
	return design.Enumerate(ports, maxSwitch)
}

// ParetoFront reduces candidates to the PA/crosspoint Pareto front.
func ParetoFront(points []DesignPoint) []DesignPoint { return design.ParetoFront(points) }

// BestDesignUnderBudget returns the highest-PA candidate within a
// crosspoint budget.
func BestDesignUnderBudget(points []DesignPoint, budget int64) (DesignPoint, bool) {
	return design.BestUnderBudget(points, budget)
}

// CheapestDesignAtFloor returns the lowest-cost candidate meeting a
// PA(1) floor.
func CheapestDesignAtFloor(points []DesignPoint, floor float64) (DesignPoint, bool) {
	return design.CheapestAtFloor(points, floor)
}

// Netlist is the full physical wire enumeration of a network.
type Netlist = netlist.Netlist

// BuildNetlist materializes every wire of cfg; its wire count equals the
// Equation 3 cost exactly.
func BuildNetlist(cfg Config) (*Netlist, error) { return netlist.Build(cfg) }

// DescribeNetwork renders a stage-by-stage structural summary (Figure 4
// style) of cfg.
func DescribeNetwork(cfg Config, maxFanout int) (string, error) {
	return netlist.Describe(cfg, maxFanout)
}
