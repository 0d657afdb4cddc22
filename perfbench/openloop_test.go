package main

import (
	"testing"
	"time"
)

// A fake backend that stalls on the first request: the open loop must keep
// its schedule, every request queued behind the stall must be charged from
// its due time, not from when it finally went out, and a request whose
// connection was free is charged from when it went out, not for the
// generator's own lateness.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		interval = 3 * time.Millisecond
		stall    = 30 * time.Millisecond
		n        = 30
	)
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(n * interval)
	recs := runSchedule(start, deadline, interval, 0, 1, func(j int, due time.Time) rec {
		if j == 0 {
			time.Sleep(stall)
		}
		return rec{kind: opTopK}
	})
	if len(recs) != n {
		t.Fatalf("%d requests sent, want all %d due before the deadline", len(recs), n)
	}
	if recs[0].queued || recs[0].lat < stall || recs[0].late > stall/2 {
		t.Errorf("stalled request: queued %v, latency %v, late %v", recs[0].queued, recs[0].lat, recs[0].late)
	}
	// Request 1 was due one interval in but could only go out after the
	// stall: it waited about stall-interval before being sent.
	if min := stall - interval - 5*time.Millisecond; !recs[1].queued || recs[1].late < min || recs[1].lat < recs[1].late {
		t.Errorf("request behind the stall: queued %v, latency %v, late %v; want both at least %v",
			recs[1].queued, recs[1].lat, recs[1].late, min)
	}
	for i, rc := range recs {
		due := time.Duration(i) * interval
		want := rc.done - due // from the due time
		if !rc.queued {
			want -= rc.late // from the send time
		}
		if rc.lat != want {
			t.Fatalf("request %d (queued %v): latency %v, want %v", i, rc.queued, rc.lat, want)
		}
		if rc.done <= 0 || rc.done > deadline.Sub(start)+stall {
			t.Fatalf("request %d completed at %v", i, rc.done)
		}
	}
	if last := recs[n-1]; last.queued || last.late > 10*time.Millisecond {
		t.Errorf("the generator never caught up: last request queued %v, %v late", last.queued, last.late)
	}
}

// Connections keep separate schedules: a stall on one does not make the
// other late.
func TestOpenLoopConnectionsInterleave(t *testing.T) {
	const interval = 2 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(20 * interval)
	var dues []time.Duration
	recs := runSchedule(start, deadline, interval, 1, 2, func(j int, due time.Time) rec {
		dues = append(dues, due.Sub(start))
		return rec{kind: opAgg}
	})
	if len(recs) != 10 {
		t.Fatalf("connection 1 of 2 sent %d requests, want 10", len(recs))
	}
	for j, d := range dues {
		if want := time.Duration(2*j+1) * interval; d != want {
			t.Fatalf("request %d due at %v, want %v", j, d, want)
		}
	}
}
