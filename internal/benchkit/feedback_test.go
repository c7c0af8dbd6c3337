package benchkit

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestMeasureFeedback(t *testing.T) {
	skipUnderRace(t)
	rep, err := MeasureFeedback(ScaleTiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(rep.Epochs))
	}
	if !rep.AnswersIdentical {
		t.Error("feedback changed answers — the loop must stay advisory")
	}
	first, last := rep.Epochs[0], rep.Epochs[len(rep.Epochs)-1]
	if last.MeanCardErr > first.MeanCardErr {
		t.Errorf("card error grew over the sweep: %v -> %v", first.MeanCardErr, last.MeanCardErr)
	}
	if last.Reprices == 0 {
		t.Error("the warm epochs re-priced no cached plans")
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("text report is empty")
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round FeedbackReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if round.CardImprovement != rep.CardImprovement {
		t.Error("JSON round trip lost the improvement factor")
	}
}
