package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"antsearch/internal/adversary"
	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into the program. Times are nanoseconds since the recorder's start.
// Parent is the index of the enclosing span in the same slice, or -1. ID
// names the cell, trial or request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes reduces spans to the total self time per span name: a span's
// duration minus the part of its interval that the union of its children's
// intervals covers. Children that run in parallel therefore count once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// totalByName sums span durations per name.
func totalByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// writeSpans writes the spans as JSON to path, for inspection after a run.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// goid returns the current goroutine's id, parsed from its stack header.
// It costs about a microsecond, so the traced run calls it once per trial
// and searcher, never per segment.
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.Atoi(string(b))
	if err != nil {
		panic("unparseable goroutine header: " + string(buf[:]))
	}
	return id
}

// trialRec is what the traced run learns about one trial. It is written only
// by the goroutine that runs the trial.
type trialRec struct {
	engine     *xrand.Stream
	placeStart int64
	placeEnd   int64
	lastEnd    int64 // end of the trial's last emission
	emits      int
	emitNs     int64
	segs       int
	// Per-agent segments and sortie counts, kept for the sample trials only.
	agentSegs    [][]trajectory.Seg
	agentSorties []int
}

// cellTrace instruments one cell: its Place probe gives trial boundaries and
// treasures, its emitting Algorithm wrapper times every EmitSortie.
type cellTrace struct {
	t0       time.Time
	trials   []trialRec
	treasure []grid.Point
	sample   int // trials whose segments are kept

	mu      sync.Mutex
	current map[int]*trialRec // goroutine id → trial it is running
}

func (c *cellTrace) now() int64 { return int64(time.Since(c.t0)) }

// tracedSearcher wraps one agent's searcher and times its emissions.
type tracedSearcher struct {
	inner agent.Searcher
	emit  agent.SortieEmitter
	rec   *trialRec
	agent int
	cell  *cellTrace
}

func (s *tracedSearcher) NextSegment() (trajectory.Seg, bool) { return s.inner.NextSegment() }

func (s *tracedSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	n0 := len(buf)
	start := s.cell.now()
	buf, ok := s.emit.EmitSortie(buf)
	end := s.cell.now()
	r := s.rec
	r.emits++
	r.emitNs += end - start
	r.segs += len(buf) - n0
	r.lastEnd = end
	if r.agentSegs != nil {
		r.agentSegs[s.agent] = append(r.agentSegs[s.agent], buf[n0:]...)
		if ok {
			r.agentSorties[s.agent]++
		}
	}
	return buf, ok
}

// tracedAlgorithm hands every agent a tracedSearcher bound to the trial its
// goroutine is running.
type tracedAlgorithm struct {
	inner agent.Algorithm
	cell  *cellTrace
}

func (a *tracedAlgorithm) Name() string { return a.inner.Name() }

func (a *tracedAlgorithm) NewSearcher(rng *xrand.Stream, idx int) agent.Searcher {
	return a.wrap(a.inner.NewSearcher(rng, idx), idx)
}

// ReuseSearcher keeps the inner algorithm's searcher reuse, so the traced
// run allocates what the untraced one does.
func (a *tracedAlgorithm) ReuseSearcher(prev agent.Searcher, rng *xrand.Stream, idx int) agent.Searcher {
	reuser, ok := a.inner.(agent.SearcherReuser)
	if !ok {
		return a.NewSearcher(rng, idx)
	}
	if ts, ok := prev.(*tracedSearcher); ok {
		prev = ts.inner
	}
	return a.wrap(reuser.ReuseSearcher(prev, rng, idx), idx)
}

func (a *tracedAlgorithm) wrap(inner agent.Searcher, idx int) agent.Searcher {
	emit, ok := inner.(agent.SortieEmitter)
	if !ok {
		panic("traced algorithm " + a.inner.Name() + " has no SortieEmitter")
	}
	a.cell.mu.Lock()
	rec := a.cell.current[goid()]
	a.cell.mu.Unlock()
	return &tracedSearcher{inner: inner, emit: emit, rec: rec, agent: idx, cell: a.cell}
}

// tracedPlace wraps the cell's treasure placement: it opens each trial,
// records the treasure, and binds the calling goroutine to the trial so the
// searchers built next are attributed to it.
type tracedPlace struct {
	adversary.Strategy
	cell *cellTrace
	k    int
}

func (p *tracedPlace) Place(trial int, rng *xrand.Stream) grid.Point {
	id := goid()
	start := p.cell.now()
	pt := p.Strategy.Place(trial, rng)
	r := &p.cell.trials[trial]
	r.engine, r.placeStart, r.placeEnd = rng, start, p.cell.now()
	if trial < p.cell.sample {
		r.agentSegs = make([][]trajectory.Seg, p.k)
		r.agentSorties = make([]int, p.k)
	}
	p.cell.treasure[trial] = pt
	p.cell.mu.Lock()
	p.cell.current[id] = r
	p.cell.mu.Unlock()
	return pt
}

// newCellTrace prepares the instrumentation of a cell of the given size.
func newCellTrace(trials, sample int) *cellTrace {
	return &cellTrace{
		t0:       time.Now(),
		trials:   make([]trialRec, trials),
		treasure: make([]grid.Point, trials),
		sample:   sample,
		current:  make(map[int]*trialRec),
	}
}

// spans turns the cell's records into spans: the cell, one span per trial
// (from its Place to the next trial's Place on the same engine, or to its
// last emission), and under each trial its Place call and its emissions
// rolled up into one span of their summed duration. Merges are instants.
func (c *cellTrace) spans(cellStart, cellEnd int64, merges []int64) []span {
	out := []span{{Name: "cell", Start: cellStart, End: cellEnd, Parent: -1}}
	for t := range c.trials {
		r := &c.trials[t]
		end := max(r.lastEnd, r.placeEnd)
		if t+1 < len(c.trials) && c.trials[t+1].engine == r.engine {
			end = c.trials[t+1].placeStart
		}
		ti := len(out)
		out = append(out,
			span{Name: "trial", Start: r.placeStart, End: end, Parent: 0, ID: t},
			span{Name: "place", Start: r.placeStart, End: r.placeEnd, Parent: ti, ID: t},
			span{Name: "emit", Start: r.placeEnd, End: min(r.placeEnd+r.emitNs, end), Parent: ti, ID: t})
	}
	for i, m := range merges {
		out = append(out, span{Name: "merge", Start: m, End: m, Parent: 0, ID: i})
	}
	return out
}
