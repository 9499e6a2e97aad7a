package scenario

import (
	"repro/internal/failure"
	"repro/internal/harness"
)

// CellFailures aggregates a cell's injected-failure outcomes.
type CellFailures struct {
	Count             int     `json:"count"`
	LostGroupSeconds  float64 `json:"lostGroupSeconds"`
	LostGlobalSeconds float64 `json:"lostGlobalSeconds"`
	ReplayBytes       int64   `json:"replayBytes"`
	SavedSeconds      float64 `json:"savedSeconds"`
}

// CellJobs aggregates a cluster cell's job stream (specs with a jobs block;
// ExecSeconds is then the cluster makespan).
type CellJobs struct {
	Count           int     `json:"count"`
	Placement       string  `json:"placement"`
	Utilization     float64 `json:"utilization"`
	MeanWaitSeconds float64 `json:"meanWaitSeconds"`
	MaxWaitSeconds  float64 `json:"maxWaitSeconds"`
}

// CellSummary is one finished cell's headline figures: its matrix
// coordinates and seed, the engine that ran, and the run's measurements.
// The scenario table, gbd's wire cell, and the tuner's scores all read this
// one struct, so they agree by construction. Its JSON form is gbd's wire
// cell; field order and tags are part of that contract.
type CellSummary struct {
	Scale       int           `json:"scale"`
	Mode        string        `json:"mode"`
	Rep         int           `json:"rep"`
	Seed        int64         `json:"seed"`
	Engine      string        `json:"engine"`
	ExecSeconds float64       `json:"execSeconds"`
	Epochs      int           `json:"epochs"`
	Events      uint64        `json:"events"`
	Failures    *CellFailures `json:"failures,omitempty"`
	Jobs        *CellJobs     `json:"jobs,omitempty"`
}

// Summarize is the only code that turns a cell's result into figures.
// Failures stays nil when the cell injected none, whether or not a failure
// process was armed; readers treat nil as zeros.
func Summarize(c Cell, res *harness.Result) CellSummary {
	s := CellSummary{
		Scale:       c.Scale,
		Mode:        c.Mode,
		Rep:         c.Rep,
		Seed:        c.Seed,
		Engine:      res.Name,
		ExecSeconds: res.ExecTime.Seconds(),
		Epochs:      res.Epochs,
		Events:      res.Events,
	}
	if len(res.Failures) > 0 {
		t := failure.Sum(res.Failures)
		s.Failures = &CellFailures{
			Count:             t.Failures,
			LostGroupSeconds:  t.WorkLossGrp.Seconds(),
			LostGlobalSeconds: t.WorkLossGlb.Seconds(),
			ReplayBytes:       t.ReplayBytes,
			SavedSeconds:      t.WorkSaved().Seconds(),
		}
	}
	if res.Jobs != nil {
		s.Jobs = &CellJobs{
			Count:           len(res.Jobs.Jobs),
			Placement:       res.Jobs.Placement,
			Utilization:     res.Jobs.Utilization,
			MeanWaitSeconds: res.Jobs.MeanWait.Seconds(),
			MaxWaitSeconds:  res.Jobs.MaxWait.Seconds(),
		}
	}
	return s
}

// failures returns the cell's failure aggregate, zeros when none fired.
func (s CellSummary) failures() CellFailures {
	if s.Failures == nil {
		return CellFailures{}
	}
	return *s.Failures
}

// jobs returns the cell's job-stream aggregate, zeros when it has none.
func (s CellSummary) jobs() CellJobs {
	if s.Jobs == nil {
		return CellJobs{}
	}
	return *s.Jobs
}
