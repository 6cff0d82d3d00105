package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it, so a p99 needs 1000
// samples and a p90 needs 100.
const minBeyond = 10

// summary is a sorted sample set.
type summary struct{ sorted []float64 }

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{sorted: s}
}

func (s summary) n() int { return len(s.sorted) }

// at returns the q-quantile by nearest rank (0 for no samples).
func (s summary) at(q float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.sorted) {
		i = len(s.sorted) - 1
	}
	return s.sorted[i]
}

func (s summary) median() float64 { return s.at(0.5) }

// resolvable reports whether the q tail has at least minBeyond samples
// strictly past its rank.
func (s summary) resolvable(q float64) bool {
	return float64(len(s.sorted))*(1-q) >= minBeyond-1e-9
}

// tail applies the percentile rule: it returns the q-quantile when it is
// resolvable, and otherwise the highest percentile that is (reporting
// which one in got), so a short run never passes off its maximum as a p99.
func (s summary) tail(q float64) (v, got float64) {
	if s.resolvable(q) {
		return s.at(q), q
	}
	if len(s.sorted) <= minBeyond {
		return s.median(), 0.5
	}
	got = 1 - float64(minBeyond)/float64(len(s.sorted))
	if got < 0.5 {
		got = 0.5
	}
	return s.at(got), got
}

func medianOf(v []float64) float64 { return summarize(v).median() }

// autoRegret is Σ time with the planner's choice over Σ time with the
// fastest forced engine, per query: forced[i] holds query i's time under
// every capable engine. 1.0 means the planner always picked the fastest
// engine; 0 is returned when nothing was measured.
func autoRegret(auto []float64, forced [][]float64) float64 {
	var sa, sb float64
	for i, a := range auto {
		if i >= len(forced) || len(forced[i]) == 0 {
			continue
		}
		best := forced[i][0]
		for _, f := range forced[i][1:] {
			best = math.Min(best, f)
		}
		sa += a
		sb += best
	}
	if sb == 0 {
		return 0
	}
	return sa / sb
}

// schedule is the open-loop writer's timetable: two periodic streams
// (tail-append batches and interior rewrites; rewriteEvery 0 means none)
// merged in due order, holding every operation due before end (0 = no
// end), so a run offers the same writes for as long as it lasts. The
// writer never waits for a previous operation to be "caught up" — a stall
// shows up as later operations starting late, and their latency is timed
// from when they were due, so the stall is charged to every operation it
// delayed.
type schedule struct {
	appendEvery, rewriteEvery, end time.Duration
	nAppend, nRewrite              int
}

// opKind names one of the schedule's two streams.
type opKind int

const (
	opAppend opKind = iota
	opRewrite
)

// next pops the earliest due operation, as an offset from the run start;
// ok is false once nothing more is due before a set end. Ties go to the append
// stream.
func (s *schedule) next() (kind opKind, due time.Duration, ok bool) {
	da := time.Duration(s.nAppend) * s.appendEvery
	dr := time.Duration(s.nRewrite+1) * s.rewriteEvery
	if s.rewriteEvery <= 0 || da <= dr {
		kind, due = opAppend, da
	} else {
		kind, due = opRewrite, dr
	}
	if s.end > 0 && due >= s.end {
		return kind, due, false
	}
	if kind == opAppend {
		s.nAppend++
	} else {
		s.nRewrite++
	}
	return kind, due, true
}

// dueSample is one executed operation's timing, measured from its due
// time: lag is how late it started, latency how late it finished.
type dueSample struct {
	kind         opKind
	lag, latency time.Duration
	service      time.Duration // began to done
}

// account times one operation against its due offset given the run start
// and the operation's actual start and finish instants.
func account(kind opKind, start time.Time, due time.Duration, began, done time.Time) dueSample {
	at := start.Add(due)
	lag := began.Sub(at)
	if lag < 0 {
		lag = 0
	}
	return dueSample{kind: kind, lag: lag, latency: done.Sub(at), service: done.Sub(began)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
