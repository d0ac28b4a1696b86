package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"batchals/internal/benchmeta"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the recorder's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  int    `json:"trace"`  // shared by every span of one traced pass
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by export
}

func (s *span) duration() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one goroutine. Begin nests the new
// span under the innermost open one; spans are written out only when the
// run ends.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
	trace  int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newTrace starts a new trace id for the spans that follow.
func (r *recorder) newTrace() { r.trace++ }

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name,
		Start: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
	return time.Duration(r.spans[id].duration())
}

// timed records fn as one span and returns its duration in seconds.
func (r *recorder) timed(name string, fn func()) float64 {
	id := r.begin(name)
	fn()
	return r.end(id).Seconds()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[i] = s.duration() - covered
	}
	return self
}

// export writes every span with its self time as one JSON document.
func (r *recorder) export(w io.Writer, env *benchmeta.Env) error {
	self := selfTimes(r.spans)
	out := make([]span, len(r.spans))
	for i, s := range r.spans {
		s.Self = self[i]
		out[i] = s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Env   *benchmeta.Env `json:"env"`
		Spans []span         `json:"spans"`
	}{env, out})
}
