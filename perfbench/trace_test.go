package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"batchals/internal/benchmeta"
)

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	root [0,100)
//	├── a [10,40)          self 30-(15+5)=10
//	│   ├── a1 [12,27)
//	│   └── a2 [35,45)     clipped to [35,40)
//	├── b [30,60)          overlaps a; self 30
//	└── c [90,120)         clipped to [90,100), no children: self 30
//
// root's children cover [10,60) ∪ [90,100) = 60, so root's self is 40.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 12, End: 27},
		{ID: 3, Parent: 1, Start: 35, End: 45},
		{ID: 4, Parent: 0, Start: 30, End: 60},
		{ID: 5, Parent: 0, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := []int64{40, 10, 15, 10, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndExports(t *testing.T) {
	r := newRecorder()
	r.newTrace()
	root := r.begin("root")
	r.timed("child", func() {})
	inner := r.begin("inner")
	r.timed("grandchild", func() {})
	r.end(inner)
	r.end(root)
	r.newTrace()
	r.timed("next", func() {})

	wantParent := []int{-1, 0, 0, 2, -1}
	wantTrace := []int{1, 1, 1, 1, 2}
	for i, s := range r.spans {
		if s.Parent != wantParent[i] || s.Trace != wantTrace[i] || s.End < s.Start {
			t.Errorf("span %d %q: parent %d trace %d [%d,%d), want parent %d trace %d",
				i, s.Name, s.Parent, s.Trace, s.Start, s.End, wantParent[i], wantTrace[i])
		}
	}

	var buf bytes.Buffer
	if err := r.export(&buf, &benchmeta.Env{GoVersion: "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Env   benchmeta.Env `json:"env"`
		Spans []span        `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(r.spans)
	if len(doc.Spans) != len(r.spans) || doc.Env.GoVersion != "test" {
		t.Fatalf("export: %d spans, env %v", len(doc.Spans), doc.Env)
	}
	for i, s := range doc.Spans {
		if s.Self != self[i] {
			t.Errorf("exported span %d self %d, want %d", i, s.Self, self[i])
		}
	}
}
