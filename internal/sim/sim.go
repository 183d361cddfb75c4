// Package sim contains the simulation engines that execute search algorithms
// on the grid and measure the quantity the paper is about: the time until the
// first of the k agents steps on the treasure.
//
// Two engines share the same semantics:
//
//   - the analytic engine (Run) walks the trajectory segment by segment and
//     answers "does this segment hit the treasure, and when?" with the
//     segments' closed-form queries, so a multi-million-step spiral search
//     costs O(1);
//   - the exact engine (RunExact) enumerates every cell an agent stands on
//     and can report each visit to a caller-supplied visitor, which the
//     coverage and overlap analyses need.
//
// Both engines replay exactly the same random decisions for a given seed, so
// they produce identical hit times; the equivalence is enforced by tests.
//
// The engines interleave the k agents by advancing, at every step, the agent
// with the smallest elapsed time (a min-heap keyed on elapsed time and agent
// index, packed into one word). That keeps the total work proportional to k
// times the answer: an agent is never simulated past the moment some other
// agent is already known to have found the treasure, and an individual agent
// that would never find the treasure on its own (a coordinated agent assigned
// the wrong sector, a one-shot searcher that missed) does not stall the run.
//
// Time accounting follows Section 2 of the paper: traversing one edge costs
// one unit, all agents start at the source at time zero and move
// synchronously, and the search completes when some agent first visits the
// treasure node.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// DefaultMaxTime is the time cap applied when Options.MaxTime is zero. It is
// deliberately generous: the cap exists to keep accidental non-terminating
// configurations (for example a single random walker on the infinite grid)
// from hanging, not to truncate legitimate runs. It fits the engine's packed
// scheduling key for every k up to 2^29 (see ValidateMaxTime).
const DefaultMaxTime = 1 << 34

// keyShift is the number of low bits the packed heap key reserves for the
// agent index: enough to hold k-1.
func keyShift(numAgents int) uint {
	return uint(bits.Len(uint(numAgents - 1)))
}

// ValidateMaxTime reports whether the time cap maxTime (0 or negative = the
// default) fits the engines' scheduling key for numAgents agents. The engines
// order agents by one word, elapsed<<shift | index with
// shift = bits.Len(k-1), so elapsed times — which never exceed the cap —
// must stay below 2^(64-shift). With k <= 2 every int cap fits; the default
// cap fits every k up to 2^29.
func ValidateMaxTime(numAgents, maxTime int) error {
	if maxTime <= 0 {
		maxTime = DefaultMaxTime
	}
	if numAgents < 1 {
		return nil
	}
	if shift := keyShift(numAgents); bits.Len64(uint64(maxTime)) > 64-int(shift) {
		return fmt.Errorf("sim: time cap %d is too large for %d agents: it must be below 2^%d",
			maxTime, numAgents, 64-shift)
	}
	return nil
}

// Instance is one concrete search problem: an algorithm, the number of
// identical agents executing it, and the treasure location.
type Instance struct {
	// Algorithm is the common protocol all agents execute.
	Algorithm agent.Algorithm
	// NumAgents is k, the number of identical agents.
	NumAgents int
	// Treasure is the target node τ. It must differ from the source.
	Treasure grid.Point
	// Faults, when non-nil and non-zero, subjects the agents to the fault
	// model: each agent draws its fail-stop/fail-stall schedule from a
	// dedicated stream derived from (Options.Seed, xrand.PathFault, agent
	// index), so
	// a fault-free instance consumes no fault randomness and stays
	// bit-identical to runs that predate the fault model.
	Faults *fault.Plan
}

// Validate reports whether the instance is well formed.
func (in Instance) Validate() error {
	if in.Algorithm == nil {
		return errors.New("sim: instance has no algorithm")
	}
	if in.NumAgents < 1 {
		return fmt.Errorf("sim: need at least one agent, got %d", in.NumAgents)
	}
	if in.Treasure == grid.Origin {
		return errors.New("sim: treasure must not be placed on the source")
	}
	if in.Faults != nil {
		if err := in.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// faulty reports whether the instance carries an active fault plan.
func (in Instance) faulty() bool {
	return in.Faults != nil && !in.Faults.IsZero()
}

// noFault mirrors fault.None locally: the sentinel time of an event that
// never fires, larger than every reachable simulated time.
const noFault = fault.None

// Options control a single simulation run.
type Options struct {
	// Seed is the base seed; each agent's stream is derived from it and the
	// agent index, so runs are reproducible and agent-order independent.
	Seed uint64
	// MaxTime caps the simulated time. A run that has not found the treasure
	// by MaxTime stops and reports Capped. Zero means DefaultMaxTime.
	MaxTime int
}

// maxTime returns the effective cap.
func (o Options) maxTime() int {
	if o.MaxTime <= 0 {
		return DefaultMaxTime
	}
	return o.MaxTime
}

// Result reports the outcome of simulating one instance.
type Result struct {
	// Found is true if some agent visited the treasure before the cap.
	Found bool
	// Time is the first-hit time if Found, and the cap otherwise.
	Time int
	// Finder is the index of the agent that found the treasure first, or
	// -1. Among agents that reach it at the same time, the one whose hitting
	// segment started earliest wins, and the smaller index breaks a tie on
	// that (the order in which the engines advance agents).
	Finder int
	// Capped is true if the treasure was not found before the cap.
	Capped bool
	// Survivors is k′, the number of agents whose fail-stop time lies
	// strictly after Time (an agent crashing exactly at Time performs no
	// action at that instant, so it does not survive). Fault-free runs report
	// NumAgents.
	Survivors int
	// Lower-bound reference values for convenience: the distance D of the
	// treasure and the trivial bound D + D²/k for this instance.
	Distance   int
	LowerBound float64
}

// CompetitiveRatio returns Time / (D + D²/k), the quantity the paper's
// competitiveness definition compares against. For capped runs it returns the
// ratio computed with the cap, which is a lower bound on the true ratio. A
// zero lower bound only arises on the degenerate D=0 instance (treasure on
// the source), which both engines and MonteCarlo reject; the ratio is
// undefined there and reported as NaN so that accidental aggregation surfaces
// loudly instead of silently dragging means toward zero.
func (r Result) CompetitiveRatio() float64 {
	if r.LowerBound == 0 {
		return math.NaN()
	}
	return float64(r.Time) / r.LowerBound
}

// SurvivorLowerBound returns D + D²/k′ — the trivial bound re-based against
// the k′ agents that survived the run, the reference the paper's
// graceful-degradation claim compares against. It is +Inf when no agent
// survived: zero agents cannot find anything, so every finite time is
// "infinitely good" relative to the bound.
func (r Result) SurvivorLowerBound() float64 {
	if r.Survivors < 1 {
		return math.Inf(1)
	}
	return lowerBound(r.Distance, r.Survivors)
}

// SurvivorCompetitiveRatio returns Time / (D + D²/k′). Like CompetitiveRatio
// it is NaN on the degenerate D=0 instance; it is additionally NaN when no
// agent survived (the bound is +Inf and the ratio carries no information), so
// all-crashed capped trials drop out of ratio aggregates instead of dragging
// means toward zero.
func (r Result) SurvivorCompetitiveRatio() float64 {
	if r.Survivors < 1 || r.Distance == 0 {
		return math.NaN()
	}
	return float64(r.Time) / lowerBound(r.Distance, r.Survivors)
}

// lowerBound returns D + D²/k.
func lowerBound(d, k int) float64 {
	return float64(d) + float64(d)*float64(d)/float64(k)
}

// ErrDiscontinuousTrajectory is returned when an algorithm emits a segment
// that does not start where the previous one ended. It always indicates a bug
// in the algorithm implementation, but the engines surface it as an error
// rather than panicking so that experiment sweeps fail cleanly.
var ErrDiscontinuousTrajectory = errors.New("sim: searcher emitted a discontinuous trajectory")

// agentState is the per-agent bookkeeping shared by both engines. States live
// in the engine's flat agents slice and embed their random stream by value,
// so resetting an agent between trials touches memory in place instead of
// allocating a generator, a state struct and a heap entry per agent.
type agentState struct {
	idx      int
	searcher agent.Searcher
	// emitter is the searcher's batch view (agent.SortieEmitter), resolved
	// once per reset; nil when the searcher only supports NextSegment.
	emitter agent.SortieEmitter
	elapsed int
	pos     grid.Point
	// zeroStreak counts consecutive segments that made no progress in time;
	// it guards the engine loop against algorithms that emit zero-duration
	// segments forever.
	zeroStreak int
	// segs[segNext:] are segments the searcher has batch-emitted but the
	// engine has not yet consumed. The storage persists across trials (reset
	// truncates, never frees), so steady-state refills write into warm
	// memory without allocating.
	segs    []trajectory.Seg
	segNext int
	// crashAt/stallAt/stallDur are the agent's fault schedule for this trial
	// (fault.Schedule flattened into the flat per-agent storage; noFault =
	// the event never fires). crashAt survives the crash itself — the
	// survivor count reads it after the loop. nextFaultAt caches
	// min(crashAt, stallAt) so the hot path gates all fault handling on one
	// comparison per segment.
	crashAt     int
	stallAt     int
	stallDur    int
	nextFaultAt int
	// stream is the agent's private randomness, derived from the run seed and
	// the agent index.
	stream xrand.Stream
}

// maxZeroStreak is the number of consecutive zero-duration segments an agent
// may emit before the engine declares the algorithm stuck. Legitimate
// schedules emit at most a handful of degenerate segments in a row.
const maxZeroStreak = 1 << 20

// ErrNoProgress is returned when an agent keeps emitting zero-duration
// segments without ever advancing simulated time.
var ErrNoProgress = errors.New("sim: searcher makes no progress (zero-duration segments)")

// discontinuityError builds the ErrDiscontinuousTrajectory report. It lives
// outside the hot functions that detect the condition (scanSeg, advanceExact)
// so their bodies stay fmt-free: formatting boxes every operand, and the
// hotpath analyzer holds the kernel to zero fmt usage.
func discontinuityError(seg trajectory.Seg, start, at grid.Point) error {
	return fmt.Errorf("%w: segment %v starts at %v, agent is at %v",
		ErrDiscontinuousTrajectory, seg, start, at)
}

// agentError attributes an engine-loop error to the agent that raised it,
// cold for the same reason as discontinuityError.
func agentError(idx int, err error) error {
	return fmt.Errorf("agent %d: %w", idx, err)
}

// engine is the reusable state of the simulation loop: flat per-agent
// storage, a min-heap of packed keys over it, and a scratch stream for
// treasure placement. A fresh engine is ready to use (the zero value); reset
// prepares it for a trial, reusing the agent and heap storage from the
// previous trial of the same shard, so a shard of any number of trials
// performs O(1) engine-level allocations in total. Engines are not safe for concurrent use;
// the Monte-Carlo fan-out gives each shard its own.
type engine struct {
	agents []agentState
	// heap orders the live agents by (elapsed, idx): the engines always
	// advance the agent that is furthest behind in simulated time and
	// tie-break deterministically. (elapsed, idx) is a strict total order, so
	// the sequence of advanced agents — and therefore every result — is
	// independent of the heap's internal layout.
	//
	// Each entry packs the pair into one word, elapsed<<shift | idx, with
	// shift = keyShift(k): the integer order of packed keys is exactly the
	// (elapsed, idx) order, so a heap comparison is one integer compare over
	// a small contiguous array instead of a two-field compare or a pointer
	// chase into the much larger agentState structs. ValidateMaxTime keeps
	// every elapsed time that reaches the heap (always below the cap) from
	// overflowing the shift. Only the top entry can go stale (the engine loop
	// advances only the top agent), and siftDown replaces it with the fresh
	// key.
	heap []uint64
	// shift is keyShift(k) for the current trial; idxMask extracts the agent
	// index from a packed key.
	shift   uint
	idxMask uint64
	// placeRNG is the per-trial treasure-placement stream, reused across a
	// shard's trials by runShard.
	placeRNG xrand.Stream
	// faultRNG is the scratch stream reset once per (trial, agent) to draw
	// fault schedules; it lives here so faulty trials, like fault-free ones,
	// allocate no generators.
	faultRNG xrand.Stream
}

// key packs an agent's scheduling position into its heap key.
func (e *engine) key(elapsed, idx int) uint64 {
	return uint64(elapsed)<<e.shift | uint64(idx)
}

// siftDown places key at the root of the heap, whose old root entry is being
// replaced, and moves it down to restore the heap property. It carries a hole
// down instead of swapping at each level: every level moves one child up and
// key is written once, at its final position. Keys are distinct (they embed
// the agent index), so the result is the layout a swap-based sift produces.
func (e *engine) siftDown(key uint64) {
	h := e.heap
	i := 0
	for {
		l := 2*i + 1
		r := l + 1
		if r >= len(h) {
			// At most one child left: the bottom of the heap.
			if l < len(h) && h[l] < key {
				h[i] = h[l]
				i = l
			}
			break
		}
		// Child selection is written so it compiles branch-free (SETcc for
		// right, CMOV for min): which child is smaller is a coin flip the
		// branch predictor cannot learn.
		c, cr := h[l], h[r]
		right := 0
		if cr < c {
			right = 1
		}
		c = min(c, cr)
		if key < c {
			break
		}
		h[i] = c
		i = l + right
	}
	h[i] = key
}

// popTop removes the minimum agent from the heap.
func (e *engine) popTop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// reset prepares the engine for one trial: every agent back at the source at
// time zero with a freshly reseeded stream and a new searcher, and the heap
// over all agents. All agents start with equal elapsed time and the heap
// breaks ties by index, so the identity ordering is the correct initial heap.
// Algorithms that implement agent.SearcherReuser get their previous trial's
// searcher back to reset in place, which makes a whole shard of trials run
// without a single engine-level allocation after the first trial. The reuser
// is the caller's hoisted view of in.Algorithm (nil when the algorithm does
// not implement the interface): runShard derives it once per shard, so reset
// does not repeat the type assertion on every trial.
func (e *engine) reset(in Instance, opts Options, reuser agent.SearcherReuser) {
	if cap(e.agents) < in.NumAgents {
		// A fresh slice leaves every searcher nil, so the reuse path below
		// cannot hand an algorithm a searcher whose stream pointer refers to
		// the previous slice's storage.
		e.agents = make([]agentState, in.NumAgents)
		e.heap = make([]uint64, in.NumAgents)
	}
	e.agents = e.agents[:in.NumAgents]
	e.heap = e.heap[:in.NumAgents]
	e.shift = keyShift(in.NumAgents)
	e.idxMask = 1<<e.shift - 1
	faulty := in.faulty()
	for a := range e.agents {
		st := &e.agents[a]
		st.idx = a
		st.elapsed = 0
		st.pos = grid.Origin
		st.zeroStreak = 0
		st.segs = st.segs[:0]
		st.segNext = 0
		st.crashAt = noFault
		st.stallAt = noFault
		st.stallDur = 0
		st.nextFaultAt = noFault
		if faulty {
			// A dedicated stream per (trial, agent): the agent-behaviour
			// stream below stays untouched, so a plan with zero effective
			// draws still changes nothing about the trajectory.
			e.faultRNG.Reset(opts.Seed, xrand.PathFault, uint64(a))
			sched := in.Faults.Draw(&e.faultRNG)
			st.crashAt = sched.CrashAt
			st.stallAt = sched.StallAt
			st.stallDur = sched.StallDur
			st.nextFaultAt = sched.CrashAt
			if sched.StallAt < st.nextFaultAt {
				st.nextFaultAt = sched.StallAt
			}
		}
		st.stream.Reset(opts.Seed, uint64(a))
		if reuser != nil && st.searcher != nil {
			st.searcher = reuser.ReuseSearcher(st.searcher, &st.stream, a)
		} else {
			st.searcher = in.Algorithm.NewSearcher(&st.stream, a)
		}
		st.emitter, _ = st.searcher.(agent.SortieEmitter)
		e.heap[a] = e.key(0, a)
	}
}

// stepOutcome is what advancing one agent by one segment reports back to the
// engine loop.
type stepOutcome struct {
	// hit is the global hit time, or -1 if the segment did not reach the
	// treasure before the budget.
	hit int
	// finished is true if the searcher has no more segments.
	finished bool
}

// Run simulates the instance with the analytic engine and returns the
// first-hit result.
func Run(in Instance, opts Options) (Result, error) {
	var e engine
	reuser, _ := in.Algorithm.(agent.SearcherReuser)
	return e.runAnalytic(in, opts, reuser)
}

// RunExact simulates the instance cell by cell. If visit is non-nil it is
// called for every (agent, time, position) pair the simulation touches —
// including the source at time zero for each agent — up to the first-hit
// time (or the cap). The visitor must not retain the values beyond the call.
func RunExact(in Instance, opts Options, visit func(agentIdx, t int, p grid.Point)) (Result, error) {
	if visit != nil {
		// Report every agent's presence at the source at time zero, exactly
		// once, before any movement.
		for a := 0; a < in.NumAgents; a++ {
			visit(a, 0, grid.Origin)
		}
	}
	var e engine
	reuser, _ := in.Algorithm.(agent.SearcherReuser)
	return runLoop(&e, in, opts, reuser, exactAdvancer{visit: visit})
}

// validateRun checks an instance and its effective time cap before a run.
func validateRun(in Instance, timeCap int) error {
	if err := in.Validate(); err != nil {
		return err
	}
	return ValidateMaxTime(in.NumAgents, timeCap)
}

// initialResult seeds the Result for a run: capped at timeCap until some
// agent finds the treasure.
func initialResult(in Instance, timeCap int) Result {
	return Result{
		Finder:     -1,
		Time:       timeCap,
		Capped:     true,
		Distance:   in.Treasure.L1(),
		LowerBound: lowerBound(in.Treasure.L1(), in.NumAgents),
	}
}

// advancer is the step strategy the shared engine loop is parameterized over.
// Both implementations are zero-or-tiny structs, so runLoop's instantiations
// share one gcshape body; the dictionary call only fires when an agent's
// segment buffer is empty (analytic: once per emitted batch; exact: every
// step, matching the historical per-segment cost of that engine).
type advancer interface {
	advance(st *agentState, treasure grid.Point, budget int) (stepOutcome, error)
}

// analyticAdvancer refills the agent's segment buffer (or falls back to
// single-segment pulls) and scans with the closed-form queries.
type analyticAdvancer struct{}

func (analyticAdvancer) advance(st *agentState, treasure grid.Point, budget int) (stepOutcome, error) {
	return st.advanceAnalytic(treasure, budget)
}

// exactAdvancer enumerates every cell of the next segment, reporting each to
// the visitor.
type exactAdvancer struct {
	visit func(agentIdx, t int, p grid.Point)
}

func (a exactAdvancer) advance(st *agentState, treasure grid.Point, budget int) (stepOutcome, error) {
	return advanceExact(st, treasure, budget, a.visit)
}

// runAnalytic is the analytic engine behind Run and runShard.
func (e *engine) runAnalytic(in Instance, opts Options, reuser agent.SearcherReuser) (Result, error) {
	return runLoop(e, in, opts, reuser, analyticAdvancer{})
}

// runLoop is the single engine loop shared by the analytic and exact engines.
// The hot path is monomorphic: buffered segments (filled by SortieEmitter
// batch emission) are consumed inline via scanSeg with zero interface or
// dictionary dispatch, and the generic adv.advance only runs on buffer
// underflow. Two further properties keep the per-segment cost low:
//
//   - the inner loop keeps advancing the same agent while it still strictly
//     precedes every other live agent, skipping the heap sift exactly when it
//     would be a no-op and re-select the same agent anyway; the rest of the
//     heap is frozen during that inner loop, so the key the agent must stay
//     ahead of — the smaller of the top's at most two children, which bounds
//     the whole rest of the heap — is loop-invariant and hoisted out;
//   - the (elapsed, idx) strict total order — one packed integer per agent —
//     makes both the skip condition and the retire conditions exact, so the sequence of (agent, segment) steps —
//     and therefore every Result bit — is identical to the historical
//     one-segment-per-heap-round loops this replaces.
//
// The hotpath marker holds this body to no dynamic dispatch and no
// allocation; adv.advance is exempt by rule (a call on a type parameter is
// the kernel's one sanctioned, gcshape-bounded dictionary call).
//
//antlint:hotpath
func runLoop[A advancer](e *engine, in Instance, opts Options, reuser agent.SearcherReuser, adv A) (Result, error) {
	timeCap := opts.maxTime()
	if err := validateRun(in, timeCap); err != nil { //antlint:allow hotpath validation runs once before the loop and allocates only when rejecting the input
		return Result{}, err
	}
	res := initialResult(in, timeCap)

	e.reset(in, opts, reuser) //antlint:allow hotpath per-run setup, not per-step: the one ReuseSearcher dispatch happens before the loop
	best := timeCap
	for len(e.heap) > 0 {
		st := &e.agents[e.heap[0]&e.idxMask]
		if st.elapsed >= best {
			// Every remaining agent is already past the best hit time (or
			// the cap); nothing can improve the answer.
			break
		}
		// restKey is the smallest key among the other live agents — the
		// point up to which the top agent may keep advancing without any heap
		// operation. Those agents do not move while the top advances, so the
		// bound is loop-invariant: the smaller of the top's at most two
		// children bounds the whole rest of the heap. MaxUint64 means there
		// are no other agents.
		restKey := uint64(math.MaxUint64)
		if n := len(e.heap); n > 1 {
			restKey = e.heap[1]
			if n > 2 && e.heap[2] < restKey {
				restKey = e.heap[2]
			}
		}
		for {
			var outcome stepOutcome
			var err error
			if st.segNext < len(st.segs) {
				seg := st.segs[st.segNext]
				st.segNext++
				outcome, err = st.scanSeg(seg, in.Treasure, best)
			} else {
				outcome, err = adv.advance(st, in.Treasure, best)
			}
			if err != nil {
				// Includes ErrNoProgress: the zero-streak guard lives in the
				// advance leaves, which see segment durations for free.
				return Result{}, agentError(st.idx, err) //antlint:allow hotpath error exit aborts the run; the cold helper may allocate
			}
			if outcome.hit >= 0 && (outcome.hit < best || (outcome.hit == best && !res.Found)) {
				best = outcome.hit
				res.Found = true
				res.Capped = false
				res.Finder = st.idx
				res.Time = outcome.hit
			}
			if outcome.finished || outcome.hit >= 0 || st.elapsed >= best {
				e.popTop()
				break
			}
			// elapsed < best <= timeCap here, so the key cannot overflow.
			if key := e.key(st.elapsed, st.idx); key > restKey {
				e.siftDown(key)
				break
			}
			// The top agent still precedes everyone else: the sift would be a
			// no-op and the next round would pick it again, so keep going.
		}
	}
	res.Survivors = in.NumAgents
	if in.faulty() {
		// k′: agents whose crash lies strictly after the answer. Retiring an
		// agent early (elapsed >= best) never clears crashAt, so the count is
		// exact even for agents the engine stopped simulating before their
		// crash time.
		n := 0
		for a := range e.agents {
			if e.agents[a].crashAt > res.Time {
				n++
			}
		}
		res.Survivors = n
	}
	return res, nil
}

// scanSeg folds one segment into the agent's state using the segment's
// closed-form queries, fused into a single kind dispatch (trajectory.Seg.Scan)
// so the step performs one switch per segment instead of four. The budget is
// exclusive: no times >= budget may be reported as hits.
//
// The zero-streak guard lives here — the leaf that already knows the segment
// duration — rather than in the engine loop, which would have to save and
// compare elapsed around every step to detect the same condition. All other
// exits make progress (a hit, or elapsed strictly growing to the budget or by
// the duration), so only the zero-duration advance can extend a streak.
//
//antlint:hotpath
func (st *agentState) scanSeg(seg trajectory.Seg, treasure grid.Point, budget int) (stepOutcome, error) {
	start, end, duration, off, found := seg.Scan(treasure)
	if start != st.pos {
		return stepOutcome{}, discontinuityError(seg, start, st.pos) //antlint:allow hotpath error exit aborts the run; the cold helper may allocate
	}
	if st.nextFaultAt-st.elapsed <= duration {
		// Some fault fires within this segment's time window (nextFaultAt >=
		// elapsed is an engine invariant, so the subtraction cannot wrap).
		// The cold fault interpreter takes over; the common fault-free case
		// costs exactly this one comparison.
		return st.applyFaults(end, duration, off, found, budget)
	}
	if found {
		st.zeroStreak = 0
		if t := st.elapsed + off; t < budget {
			return stepOutcome{hit: t}, nil
		}
		// The hit lies beyond the budget, so it can never become the answer;
		// park the agent at the budget so the engine retires it.
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if duration > budget-st.elapsed {
		// The segment alone overshoots the budget; saturate rather than
		// overflow the elapsed counter. The engine loop only steps agents with
		// elapsed < budget, so this is strict progress.
		st.zeroStreak = 0
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if duration == 0 {
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return stepOutcome{}, ErrNoProgress
		}
	} else {
		st.zeroStreak = 0
	}
	st.elapsed += duration
	st.pos = end
	return stepOutcome{hit: -1}, nil
}

// applyFaults folds one segment into the agent's state under its fault
// schedule. It is the cold continuation of scanSeg, entered only when a fault
// fires within the segment's window, so it can afford to interpret events one
// by one. Wall-clock semantics (DESIGN.md §10):
//
//   - a stall starting at wall time S freezes the agent in place for its
//     duration L: trajectory events at wall times >= S are shifted by L
//     (events strictly before S are unaffected; an arrival exactly at S is
//     delayed);
//   - a crash at wall time C means the agent performs no action at wall
//     times >= C — a treasure hit exactly at C does not count;
//   - a crash inside a stall window still fires at C: events are applied in
//     wall-clock order, crash winning ties.
//
// The interpreter tracks (wall, a): the wall-clock time corresponding to
// segment offset a, with everything in [0, a) already accounted for. Every
// exit makes strict progress (a hit, a crash retiring the agent, or elapsed
// growing — stalls last >= 1), so no exit extends a zero streak. On every
// non-retiring exit the pending events again lie strictly beyond elapsed,
// which is the invariant scanSeg's overflow-free gate relies on.
func (st *agentState) applyFaults(end grid.Point, duration, off int, found bool, budget int) (stepOutcome, error) {
	wall := st.elapsed
	a := 0
	for {
		evAt, crash := st.crashAt, true
		if st.stallAt < evAt {
			evAt, crash = st.stallAt, false
		}
		if evAt == noFault {
			break
		}
		// The segment offset at which the event fires. An event made past-due
		// by an earlier stall in this same call fires immediately.
		aEv := a
		if evAt > wall {
			aEv = a + (evAt - wall)
			if aEv > duration {
				// The event lies strictly beyond the segment (and therefore,
				// by aEv > duration, strictly beyond the new elapsed).
				break
			}
		}
		if found && off >= a && off < aEv {
			// The hit precedes the event on the wall clock.
			st.zeroStreak = 0
			return st.hitAt(wall+(off-a), budget), nil
		}
		if crash {
			t := evAt
			if t > budget {
				t = budget
			}
			st.zeroStreak = 0
			st.elapsed = t
			return stepOutcome{hit: -1, finished: true}, nil
		}
		// Stall: freeze from max(wall, evAt) for stallDur, consuming the
		// event. Saturate at the budget instead of overflowing — the agent is
		// then past every time that could still matter.
		startAt := evAt
		if wall > startAt {
			startAt = wall
		}
		st.stallAt = noFault
		st.nextFaultAt = st.crashAt
		if startAt >= budget || st.stallDur > budget-startAt {
			st.zeroStreak = 0
			st.elapsed = budget
			return stepOutcome{hit: -1}, nil
		}
		wall = startAt + st.stallDur
		a = aEv
	}
	if found {
		st.zeroStreak = 0
		return st.hitAt(wall+(off-a), budget), nil
	}
	segEnd := wall + (duration - a)
	st.zeroStreak = 0
	if segEnd >= budget {
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	st.elapsed = segEnd
	st.pos = end
	return stepOutcome{hit: -1}, nil
}

// hitAt reports a treasure hit at global time t, honoring the exclusive
// budget: a hit at or past the budget can never become the answer, so the
// agent is parked at the budget for the engine to retire.
func (st *agentState) hitAt(t, budget int) stepOutcome {
	if t < budget {
		return stepOutcome{hit: t}
	}
	st.elapsed = budget
	return stepOutcome{hit: -1}
}

// advanceAnalytic advances the agent by one segment. Batch-aware searchers
// (agent.SortieEmitter) refill the agent's buffer a sortie at a time, so one
// interface call amortizes over the whole batch and the engine loop consumes
// the rest monomorphically; everything else falls back to one NextSegment
// pull. A batch-emitted segment sequence is, by the SortieEmitter contract,
// exactly what NextSegment would have produced with the same randomness, so
// buffering does not change a single engine decision.
//
//antlint:hotpath
func (st *agentState) advanceAnalytic(treasure grid.Point, budget int) (stepOutcome, error) {
	if st.segNext < len(st.segs) {
		// Defensive: runLoop drains the buffer before calling advance, but
		// keep the invariant local so advanceAnalytic is correct standalone.
		seg := st.segs[st.segNext]
		st.segNext++
		return st.scanSeg(seg, treasure, budget)
	}
	var seg trajectory.Seg
	if st.emitter != nil {
		// The engine's one sanctioned dynamic dispatch: one EmitSortie call
		// amortized over the whole batch (PR 6's contract).
		segs, ok := st.emitter.EmitSortie(st.segs[:0]) //antlint:allow hotpath one dispatch per sortie by design
		st.segs = segs
		st.segNext = 0
		if !ok {
			return stepOutcome{hit: -1, finished: true}, nil
		}
		if len(segs) == 0 {
			// An emitter that reports ok without appending violates the
			// contract; treat it as an empty step so the zero-streak guard
			// catches a persistent offender instead of the engine spinning.
			st.zeroStreak++
			if st.zeroStreak > maxZeroStreak {
				return stepOutcome{}, ErrNoProgress
			}
			return stepOutcome{hit: -1}, nil
		}
		seg = segs[0]
		st.segNext = 1
	} else {
		var ok bool
		// Fallback for searchers without batch emission: one dispatch per
		// segment, the pre-PR 6 cost, never taken by the builtin algorithms.
		seg, ok = st.searcher.NextSegment() //antlint:allow hotpath non-batch searcher fallback path
		if !ok {
			return stepOutcome{hit: -1, finished: true}, nil
		}
	}
	return st.scanSeg(seg, treasure, budget)
}

// advanceExact advances one agent by one segment, enumerating every cell and
// reporting it to the visitor.
func advanceExact(st *agentState, treasure grid.Point, budget int,
	visit func(agentIdx, t int, p grid.Point)) (stepOutcome, error) {
	seg, ok := st.searcher.NextSegment()
	if !ok {
		return stepOutcome{hit: -1, finished: true}, nil
	}
	if seg.Start() != st.pos {
		return stepOutcome{}, fmt.Errorf("%w: segment %v starts at %v, agent is at %v",
			ErrDiscontinuousTrajectory, seg, seg.Start(), st.pos)
	}
	if st.nextFaultAt-st.elapsed <= seg.Duration() {
		return exactSegFaulty(st, seg, treasure, budget, visit)
	}
	hit := -1
	truncated := false
	seg.ForEach(func(t int, p grid.Point) bool {
		if t == 0 {
			// The segment's start coincides in time with the previous
			// segment's end and was already visited/reported.
			return true
		}
		globalT := st.elapsed + t
		if globalT >= budget {
			// The budget is exclusive, exactly as in the analytic engine:
			// only times strictly below it are simulated.
			truncated = true
			return false
		}
		if visit != nil {
			visit(st.idx, globalT, p)
		}
		if p == treasure {
			hit = globalT
			return false
		}
		return true
	})
	if hit >= 0 {
		st.zeroStreak = 0
		return stepOutcome{hit: hit}, nil
	}
	if truncated || seg.Duration() > budget-st.elapsed {
		st.zeroStreak = 0
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	// The zero-streak guard mirrors scanSeg: only a zero-duration segment
	// leaves elapsed unchanged and can extend a streak.
	if seg.Duration() == 0 {
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return stepOutcome{}, ErrNoProgress
		}
	} else {
		st.zeroStreak = 0
	}
	st.elapsed += seg.Duration()
	st.pos = seg.End()
	return stepOutcome{hit: -1}, nil
}

// exactSegFaulty enumerates one segment under the agent's fault schedule,
// the exact-engine counterpart of applyFaults with identical wall-clock
// semantics: each cell arrival is shifted by the stalls that precede it
// (an arrival exactly at a stall start is delayed), and arrivals at or after
// the crash time never happen. The two engines may differ in *when* an
// agent's elapsed absorbs a pending stall (a zero-duration segment emits no
// arrivals here but consumes a due stall analytically), which can reorder
// heap scheduling between independent agents, but never in any agent's
// visit times or hit time — which is all Result is made of.
func exactSegFaulty(st *agentState, seg trajectory.Seg, treasure grid.Point, budget int,
	visit func(agentIdx, t int, p grid.Point)) (stepOutcome, error) {
	shift := 0
	hit := -1
	truncated := false
	crashed := false
	seg.ForEach(func(t int, p grid.Point) bool {
		if t == 0 {
			// As in the fault-free path: the segment's start was already
			// visited as the previous segment's end.
			return true
		}
		wall := st.elapsed + t + shift
		for {
			if st.crashAt <= st.stallAt {
				if wall >= st.crashAt {
					crashed = true
					return false
				}
				break
			}
			if wall >= st.stallAt {
				// The arrival is delayed by the stall; later arrivals inherit
				// the shift. Re-check from the top: the delay may push the
				// arrival past the crash time.
				shift += st.stallDur
				wall += st.stallDur
				st.stallAt = noFault
				st.nextFaultAt = st.crashAt
				continue
			}
			break
		}
		if wall >= budget {
			truncated = true
			return false
		}
		if visit != nil {
			visit(st.idx, wall, p)
		}
		if p == treasure {
			hit = wall
			return false
		}
		return true
	})
	if crashed {
		t := st.crashAt
		if t > budget {
			t = budget
		}
		st.zeroStreak = 0
		st.elapsed = t
		return stepOutcome{hit: -1, finished: true}, nil
	}
	if hit >= 0 {
		st.zeroStreak = 0
		return stepOutcome{hit: hit}, nil
	}
	if truncated {
		st.zeroStreak = 0
		st.elapsed = budget
		return stepOutcome{hit: -1}, nil
	}
	if seg.Duration() == 0 && shift == 0 {
		// No arrivals, no stall absorbed: the same no-progress guard as the
		// fault-free path.
		st.zeroStreak++
		if st.zeroStreak > maxZeroStreak {
			return stepOutcome{}, ErrNoProgress
		}
	} else {
		st.zeroStreak = 0
	}
	st.elapsed += seg.Duration() + shift
	st.pos = seg.End()
	return stepOutcome{hit: -1}, nil
}

// Speedup returns the ratio T1/Tk given the two measured times, guarding
// against division by zero.
func Speedup(t1, tk float64) float64 {
	if tk <= 0 {
		return math.Inf(1)
	}
	return t1 / tk
}
