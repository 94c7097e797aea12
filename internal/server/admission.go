package server

// Budget-aware admission control (Config.AdmissionHeadroom): before a
// job is registered — and therefore before a single HIT could be
// posted — the optimizer's cost forecast for the whole script is
// checked against the session's remaining comparison budget. A script
// predicted to overrun is rejected with the coded budget_exhausted
// error having spent exactly zero cents. The headroom knob re-admits
// conservatively overpredicted queries: predicted ≤ remaining × headroom
// passes, so headroom 1.0 is exact and larger values trust the forecast
// less.

import (
	"math"

	"crowddb/internal/core"
)

// AdmissionStats reports the budget-aware admission controller's
// decisions and its forecast accuracy (predicted vs actual cents over
// admitted jobs that ran to completion) — the /stats cost_model view of
// how well admission predictions track reality.
type AdmissionStats struct {
	Admitted       int64 `json:"admitted"`
	RejectedBudget int64 `json:"rejected_budget"`
	// ForecastJobs counts completed jobs admitted with a finite forecast;
	// PredictedCents/ActualCents accumulate their admission-time forecast
	// and the spend they actually settled.
	ForecastJobs   int64   `json:"forecast_jobs"`
	PredictedCents float64 `json:"predicted_cents"`
	ActualCents    float64 `json:"actual_cents"`
}

// admitBudget runs the admission forecast for a script. It returns the
// predicted spend in cents (-1 = no finite forecast was available, or
// the check is disabled) and the coded rejection, if any.
func (s *Server) admitBudget(sess *Session, script *core.Script) (float64, *Error) {
	if s.cfg.AdmissionHeadroom <= 0 {
		return -1, nil
	}
	left := sess.budgetLeft()
	if left < 0 {
		s.countAdmission(true)
		return -1, nil // unlimited budget: trivially admitted
	}
	per := s.eng.Prices().Compare
	if per <= 0 {
		s.countAdmission(true)
		return -1, nil // no crowd platform: nothing to meter
	}
	var cents float64
	finite := false
	for i := range script.Len() {
		c, ok := s.eng.ForecastAt(script, i)
		if !ok || c.IsUnbounded() {
			continue // unknown or diverging forecast: never reject on a guess
		}
		cents += c.Cents
		finite = true
	}
	if !finite {
		s.countAdmission(true)
		return -1, nil
	}
	predicted := int(math.Ceil(cents / per))
	if float64(predicted) > float64(left)*s.cfg.AdmissionHeadroom {
		s.countAdmission(false)
		return cents, errf(CodeBudgetExhausted,
			"admission: forecast %d crowd comparisons (%.1f cents) exceeds the remaining budget %d x headroom %.2f; nothing was posted",
			predicted, cents, left, s.cfg.AdmissionHeadroom)
	}
	s.countAdmission(true)
	return cents, nil
}

func (s *Server) countAdmission(admitted bool) {
	s.mu.Lock()
	if admitted {
		s.adm.Admitted++
	} else {
		s.adm.RejectedBudget++
	}
	s.mu.Unlock()
}

// noteAdmissionOutcome folds a retired job's actual spend into the
// admission-accuracy aggregate when the job was admitted with a finite
// forecast and ran to completion.
func (s *Server) noteAdmissionOutcome(j *Job) {
	j.mu.Lock()
	predicted, actual, state := j.admPredicted, j.settledCents, j.state
	j.mu.Unlock()
	if predicted < 0 || state != JobDone {
		return
	}
	s.mu.Lock()
	s.adm.ForecastJobs++
	s.adm.PredictedCents += predicted
	s.adm.ActualCents += actual
	s.mu.Unlock()
}

// costModelReport joins the engine's cost-model accuracy with the
// admission controller's.
func (s *Server) costModelReport() CostModelReport {
	s.mu.Lock()
	adm := s.adm
	s.mu.Unlock()
	return CostModelReport{CostModelStats: s.eng.CostModel(), Admission: adm}
}
