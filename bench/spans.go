package main

import "time"

// span is one benchmark-side interval around a call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps spans in memory until the benchmark ends. A nil *spans
// records nothing, so untraced repetitions pay one nil check per boundary.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	id := len(s.list)
	cell := id
	if parent >= 0 {
		cell = s.list[parent].Cell
	}
	s.list = append(s.list, span{Name: name, ID: id, Parent: parent, Cell: cell, Start: time.Since(s.t0).Nanoseconds()})
	return id
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].End = time.Since(s.t0).Nanoseconds()
}

func newSpans() *spans { return &spans{t0: time.Now()} }
