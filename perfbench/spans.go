package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req,omitempty"`
}

// spans keeps the benchmark's own spans in memory until the run ends.
// A nil recorder records nothing, which is how untraced runs use it.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now(), list: make([]span, 0, 1<<16)} }

// begin opens a span under parent and returns its index.
func (s *spans) begin(name string, parent int32, req int64) int32 {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Start: now, Parent: parent, Req: req})
	return int32(len(s.list) - 1)
}

// end closes span i.
func (s *spans) end(i int32) {
	if s == nil {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// selfTimes returns, per span name, every span's duration minus the
// time its direct children cover, in microseconds.
func (s *spans) selfTimes() map[string][]float64 {
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string][]float64)
	for i, sp := range s.list {
		out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start-child[i])/1e3)
	}
	return out
}

// durations returns, per span name, every span's duration in
// microseconds.
func (s *spans) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, sp := range s.list {
		out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start)/1e3)
	}
	return out
}

// write stores the spans as one JSON document at path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(s.list); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
