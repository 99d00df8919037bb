package grid

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// schedMetrics publishes the scheduler's own latency distributions —
// queue wait and per-phase cell time — through the shared metrics
// registry machinery, mutex-wrapped because the registry itself is
// single-owner and the worker pool is not.
type schedMetrics struct {
	mu        sync.Mutex
	reg       *metrics.Registry
	queueWait *metrics.Histogram
	phase     [sim.NumPhases]*metrics.Histogram
}

func newSchedMetrics() *schedMetrics {
	m := &schedMetrics{reg: metrics.New()}
	m.queueWait = m.reg.NewHistogram("grid.queue_wait_us",
		"Microseconds a cell waited in the scheduler queue before a worker picked it up")
	for _, p := range sim.AllPhases() {
		m.phase[p] = m.reg.NewHistogram("grid.phase."+p.String()+"_us",
			"Microseconds finished cells spent in the "+p.String()+" phase")
	}
	return m
}

// observe is the histograms' subscription to the event stream: each of
// the scheduler's cells observes its queue wait when it starts and its
// per-phase durations when it finishes. Phases a cell never entered are
// not observed, so each phase histogram's count is "cells that spent
// time there".
func (s *Scheduler) observe(ev sim.Event) {
	if ev.Kind != sim.EvCellStart && ev.Kind != sim.EvCellFinish {
		return
	}
	if _, ok := s.Job(ev.Job); !ok {
		return // another scheduler's job
	}
	m := s.obs
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Kind == sim.EvCellStart {
		m.queueWait.Observe(ev.Dur.Microseconds())
		return
	}
	for p, d := range ev.Out.Phases {
		if d > 0 {
			m.phase[p].Observe(d.Microseconds())
		}
	}
}

func (m *schedMetrics) snapshot() metrics.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}

// MetricsSnapshot captures the scheduler's queue-wait and per-phase
// latency histograms (exported to Prometheus by `svrsim serve`).
func (s *Scheduler) MetricsSnapshot() metrics.Snapshot {
	return s.obs.snapshot()
}
