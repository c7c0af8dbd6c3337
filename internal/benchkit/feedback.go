package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/plancache"
)

// FeedbackEpoch is one pass of the feedback warm-up sweep over the
// workload: the mean relative cardinality and cost estimation errors of
// that pass (not cumulative — each epoch's mean is computed from
// snapshot deltas), plus the loop's drift and re-price activity so far.
type FeedbackEpoch struct {
	Epoch       int     `json:"epoch"`
	MeanCardErr float64 `json:"mean_card_err"`
	MeanCostErr float64 `json:"mean_cost_err"`
	DriftEvents int64   `json:"drift_events"`
	Reprices    int64   `json:"reprices"`
}

// FeedbackReport is the result of MeasureFeedback: the error trajectory
// of the adaptive cost model over repeated passes of a workload, and
// whether the answers stayed identical to a feedback-free answerer's.
type FeedbackReport struct {
	Database string          `json:"database"`
	Profile  string          `json:"profile"`
	Strategy string          `json:"strategy"`
	Epochs   []FeedbackEpoch `json:"epochs"`
	// CardImprovement and CostImprovement are first-epoch error divided
	// by last-epoch error (so 2 means the error halved over the sweep);
	// 0 when an epoch recorded no error of that kind.
	CardImprovement float64 `json:"card_improvement"`
	CostImprovement float64 `json:"cost_improvement"`
	// FinalCardErr is the last epoch's mean relative cardinality error.
	FinalCardErr float64 `json:"final_card_err"`
	// AnswersIdentical reports whether every query's answer set matched
	// the feedback-free baseline in every epoch (compared as canonical
	// sorted sets, since corrected estimates may legitimately change the
	// chosen cover and with it row order — never the set).
	AnswersIdentical bool `json:"answers_identical"`
}

// MeasureFeedback runs the feedback warm-up sweep: the LUBM workload
// answered with GCov through a plan cache and a feedback loop, repeated
// for the given number of epochs (at least 2), tracking how the mean
// relative estimation errors shrink as the loop recalibrates, and
// checking every answer against a feedback-free baseline.
func MeasureFeedback(sc Scale, epochs int) (*FeedbackReport, error) {
	if epochs < 2 {
		epochs = 2
	}
	db, err := BuildLUBM(sc)
	if err != nil {
		return nil, err
	}
	fb := feedback.New(feedback.Config{})
	pc := plancache.New(0)
	a := db.Answerer(engine.Native, core.Options{Feedback: fb, PlanCache: pc})
	base := db.Answerer(engine.Native, core.Options{})

	rep := &FeedbackReport{
		Database:         db.Name,
		Profile:          engine.Native.Name,
		Strategy:         string(core.GCov),
		AnswersIdentical: true,
	}

	// Baseline answer sets, canonicalized; queries the baseline cannot
	// answer (resource budgets) are skipped on both sides.
	want := make(map[int][]string, len(db.Encoded))
	for qi := range db.Encoded {
		ans, err := base.Answer(db.Encoded[qi], core.GCov)
		if err != nil {
			continue
		}
		want[qi] = canonicalRows(ans)
	}

	prev := fb.Snapshot()
	for epoch := 0; epoch < epochs; epoch++ {
		for qi := range db.Encoded {
			wantRows, ok := want[qi]
			if !ok {
				continue
			}
			ans, err := a.Answer(db.Encoded[qi], core.GCov)
			if err != nil {
				rep.AnswersIdentical = false
				continue
			}
			if !equalRows(canonicalRows(ans), wantRows) {
				rep.AnswersIdentical = false
			}
		}
		s := fb.Snapshot()
		e := FeedbackEpoch{
			Epoch:       epoch,
			DriftEvents: s.DriftEvents,
			Reprices:    pc.Snapshot().Reprices,
		}
		if n := s.CardErrorCount - prev.CardErrorCount; n > 0 {
			e.MeanCardErr = (s.CardErrorSum - prev.CardErrorSum) / float64(n)
		}
		if n := s.CostErrorCount - prev.CostErrorCount; n > 0 {
			e.MeanCostErr = (s.CostErrorSum - prev.CostErrorSum) / float64(n)
		}
		rep.Epochs = append(rep.Epochs, e)
		prev = s
	}

	first, last := rep.Epochs[0], rep.Epochs[len(rep.Epochs)-1]
	rep.FinalCardErr = last.MeanCardErr
	if first.MeanCardErr > 0 && last.MeanCardErr > 0 {
		rep.CardImprovement = first.MeanCardErr / last.MeanCardErr
	}
	if first.MeanCostErr > 0 && last.MeanCostErr > 0 {
		rep.CostImprovement = first.MeanCostErr / last.MeanCostErr
	}
	return rep, nil
}

// WriteText renders the sweep as a per-epoch table plus a summary line.
func (r *FeedbackReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Feedback warm-up sweep: %s, %s profile, %s\n", r.Database, r.Profile, r.Strategy); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s  %12s  %12s  %7s  %9s\n", "epoch", "card err", "cost err", "drifts", "re-prices")
	for _, e := range r.Epochs {
		fmt.Fprintf(w, "%-6d  %12.4f  %12.4f  %7d  %9d\n", e.Epoch, e.MeanCardErr, e.MeanCostErr, e.DriftEvents, e.Reprices)
	}
	_, err := fmt.Fprintf(w, "improvement: card %.2fx, cost %.2fx; answers identical: %v\n",
		r.CardImprovement, r.CostImprovement, r.AnswersIdentical)
	return err
}

// WriteJSON writes the sweep as indented JSON.
func (r *FeedbackReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// canonicalRows renders an answer as a sorted set of row strings.
func canonicalRows(ans *core.Answer) []string {
	if ans == nil || ans.Rel == nil {
		return nil
	}
	seen := make(map[string]struct{}, ans.Rel.Len())
	for _, row := range ans.Rel.Rows {
		seen[fmt.Sprint(row)] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameAnswer reports whether two answers hold the same rows, in any order —
// what holds across engine configurations, which may order rows and count
// scanned tuples differently.
func sameAnswer(a, b *core.Answer) bool {
	return a.Rel.Len() == b.Rel.Len() && equalRows(canonicalRows(a), canonicalRows(b))
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
