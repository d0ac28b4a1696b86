package serve

import (
	"sync"
	"time"

	"batchals/internal/obs/timeline"
)

// JobState is one station of a job's lifecycle through the daemon:
//
//	received → queued → admitted → running → {done, failed, canceled}
//	received → shed                (bounded queue was full)
//	queued   → canceled            (daemon drained while the job waited)
//
// Received is stamped when the spec passes validation, queued when it
// lands in the bounded queue, admitted when the worker dequeues it, and
// running when the synthesis flow actually starts — so queue wait
// (queued→admitted) and scheduling overhead (admitted→running) are
// separately attributable.
type JobState int32

// Job lifecycle states.
const (
	JobReceived JobState = iota
	JobQueued
	JobAdmitted
	JobRunning
	JobDone
	JobFailed
	JobShed
	JobCanceled
	numJobStates // sentinel, not a state
)

var jobStateNames = [numJobStates]string{
	"received", "queued", "admitted", "running",
	"done", "failed", "shed", "canceled",
}

// String returns the wire name of the state.
func (s JobState) String() string {
	if s >= 0 && s < numJobStates {
		return jobStateNames[s]
	}
	return "unknown"
}

// Terminal reports whether the state ends a job's lifecycle.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobShed, JobCanceled:
		return true
	}
	return false
}

// jobStateNext is the legal-transition relation of the state machine.
// Queued→shed covers the bounded queue's tentative-enqueue path (the
// queued stamp lands just before the non-blocking send that may shed);
// received→canceled covers a submission racing the daemon's drain.
var jobStateNext = map[JobState][]JobState{
	JobReceived: {JobQueued, JobShed, JobFailed, JobCanceled},
	JobQueued:   {JobAdmitted, JobShed, JobCanceled},
	JobAdmitted: {JobRunning, JobCanceled, JobFailed},
	JobRunning:  {JobDone, JobFailed, JobCanceled},
}

// JobTrace records one job's walk through the lifecycle state machine,
// stamping a monotonic timestamp at every transition (time.Time carries
// Go's monotonic clock, so intervals are immune to wall-clock jumps).
// It is safe for concurrent use: the daemon writes transitions, the
// /jobs/{name} handler snapshots concurrently.
type JobTrace struct {
	mu       sync.Mutex
	name     string
	received time.Time
	states   []JobState
	times    []time.Time
	err      string
}

// NewJobTrace starts a trace in the received state.
func NewJobTrace(name string) *JobTrace {
	t := &JobTrace{name: name, received: time.Now()}
	t.states = append(t.states, JobReceived)
	t.times = append(t.times, t.received)
	return t
}

// To advances the trace to state s, stamping the transition time. Illegal
// transitions (per the state machine) are rejected and return false,
// leaving the trace unchanged — a terminal trace stays terminal.
func (t *JobTrace) To(s JobState) bool { return t.ToAt(s, time.Now(), "") }

// Fail moves the trace to failed with the given message.
func (t *JobTrace) Fail(msg string) bool { return t.ToAt(JobFailed, time.Now(), msg) }

// ToAt is To with a caller-taken stamp and, when msg is non-empty, an
// error message, both recorded in one step. Taking the stamp first lets
// the daemon record everything derived from a job's end before the
// terminal transition makes the job visible as finished.
func (t *JobTrace) ToAt(s JobState, at time.Time, msg string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.states[len(t.states)-1]
	legal := false
	for _, n := range jobStateNext[cur] {
		if n == s {
			legal = true
			break
		}
	}
	if !legal {
		return false
	}
	t.states = append(t.states, s)
	t.times = append(t.times, at)
	if msg != "" {
		t.err = msg
	}
	return true
}

// Preview returns a private copy of the trace advanced by ToAt(s, at,
// msg), leaving the trace itself unchanged: its intervals and service
// spans are the ones the job will have once the transition is published.
func (t *JobTrace) Preview(s JobState, at time.Time, msg string) *JobTrace {
	t.mu.Lock()
	c := &JobTrace{
		name:     t.name,
		received: t.received,
		states:   append([]JobState(nil), t.states...),
		times:    append([]time.Time(nil), t.times...),
		err:      t.err,
	}
	t.mu.Unlock()
	c.ToAt(s, at, msg)
	return c
}

// State returns the trace's current state.
func (t *JobTrace) State() JobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.states[len(t.states)-1]
}

// at returns the stamp of the first transition into s; t.mu must be held.
func (t *JobTrace) at(s JobState) (time.Time, bool) {
	for i, st := range t.states {
		if st == s {
			return t.times[i], true
		}
	}
	return time.Time{}, false
}

// interval returns to-from when both states were visited in order.
func (t *JobTrace) interval(from, to JobState) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, okA := t.at(from)
	b, okB := t.at(to)
	if !okA || !okB {
		return 0, false
	}
	return b.Sub(a), true
}

// QueueWait returns the queued→admitted interval, once admitted.
func (t *JobTrace) QueueWait() (time.Duration, bool) {
	return t.interval(JobQueued, JobAdmitted)
}

// RunWall returns the running→terminal interval, once terminal.
func (t *JobTrace) RunWall() (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.at(JobRunning)
	last := len(t.states) - 1
	if !ok || !t.states[last].Terminal() {
		return 0, false
	}
	return t.times[last].Sub(a), true
}

// E2E returns the received→terminal interval, once terminal.
func (t *JobTrace) E2E() (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := len(t.states) - 1
	if !t.states[last].Terminal() {
		return 0, false
	}
	return t.times[last].Sub(t.received), true
}

// JobTransition is one lifecycle transition in the /jobs/{name} document.
type JobTransition struct {
	State string `json:"state"`
	AtNS  int64  `json:"at_ns"` // nanoseconds since the job was received
}

// JobTraceSnapshot is the JSON shape of one job's lifecycle at
// /jobs/{name}. The duration fields appear once the defining transitions
// exist (queue wait after admission, run wall and end-to-end once
// terminal).
type JobTraceSnapshot struct {
	Name        string          `json:"name"`
	State       string          `json:"state"`
	Error       string          `json:"error,omitempty"`
	ReceivedAt  time.Time       `json:"received_at"`
	Transitions []JobTransition `json:"transitions"`
	QueueWaitNS int64           `json:"queue_wait_ns,omitempty"`
	RunNS       int64           `json:"run_ns,omitempty"`
	E2ENS       int64           `json:"e2e_ns,omitempty"`
}

// Snapshot freezes the trace for export.
func (t *JobTrace) Snapshot() JobTraceSnapshot {
	t.mu.Lock()
	s := JobTraceSnapshot{
		Name:        t.name,
		State:       t.states[len(t.states)-1].String(),
		Error:       t.err,
		ReceivedAt:  t.received,
		Transitions: make([]JobTransition, len(t.states)),
	}
	for i, st := range t.states {
		s.Transitions[i] = JobTransition{
			State: st.String(),
			AtNS:  t.times[i].Sub(t.received).Nanoseconds(),
		}
	}
	t.mu.Unlock()
	if d, ok := t.QueueWait(); ok {
		s.QueueWaitNS = d.Nanoseconds()
	}
	if d, ok := t.RunWall(); ok {
		s.RunNS = d.Nanoseconds()
	}
	if d, ok := t.E2E(); ok {
		s.E2ENS = d.Nanoseconds()
	}
	return s
}

// EmitService bridges the trace onto a timeline recorder as spans on the
// service lane: one span per lifecycle segment ("service.queued" covers
// queued→admitted, "service.running" covers running→terminal, ...), so a
// Perfetto export of a served job shows queue wait adjacent to the
// synthesis phases the flow recorded on the driver/worker lanes. Call it
// after the trace is terminal and the flow has finished writing (the
// driver lane is single-writer).
func (t *JobTrace) EmitService(rec *timeline.Recorder) {
	if rec == nil {
		return
	}
	t.mu.Lock()
	states := append([]JobState(nil), t.states...)
	times := append([]time.Time(nil), t.times...)
	t.mu.Unlock()
	var parent int64
	for i := 0; i+1 < len(states); i++ {
		t0, t1 := rec.Rel(times[i]), rec.Rel(times[i+1])
		if t0 < 0 {
			t0 = 0 // trace began before the recorder's epoch
		}
		if t1 < t0 {
			t1 = t0
		}
		id := rec.Emit(0, timeline.Span{
			Parent: parent,
			Name:   "service." + states[i].String(),
			Worker: timeline.ServiceWorker,
			Shard:  -1,
			T0:     t0,
			T1:     t1,
		})
		if parent == 0 {
			parent = id
		}
	}
}
