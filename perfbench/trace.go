package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one operation share Op; Parent is the
// ID of the span that caused this one (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the same code runs both ways.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span timed by the caller, such as a server handler
// wrapped on another goroutine.
func (t *tracer) record(op int64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op int64, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration less the part of it that its
// children cover. Children that overlap one another (parallel calls)
// are counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// opTimes is one operation's spans folded by name: summed self time,
// summed duration, and call count.
type opTimes struct {
	self, dur map[string]int64
	calls     map[string]int
}

// foldOps groups spans by operation and folds each operation's spans
// by name.
func foldOps(spans []span) map[int64]*opTimes {
	self := selfTimes(spans)
	out := make(map[int64]*opTimes)
	for _, s := range spans {
		o := out[s.Op]
		if o == nil {
			o = &opTimes{self: map[string]int64{}, dur: map[string]int64{}, calls: map[string]int{}}
			out[s.Op] = o
		}
		o.self[s.Name] += self[s.ID]
		o.dur[s.Name] += s.End - s.Start
		o.calls[s.Name]++
	}
	return out
}

// coverage is the summed self time of the named layer spans, plus any
// residual measured outside spans, over the duration of root.
func (o *opTimes) coverage(root string, layers []string, extra int64) float64 {
	d := o.dur[root]
	if d <= 0 {
		return 0
	}
	sum := extra
	for _, l := range layers {
		sum += o.self[l]
	}
	return float64(sum) / float64(d)
}
