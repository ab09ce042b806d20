package engines

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gmark/internal/eval"
)

// TestBudgetAcrossEvaluators pins the one budget meter's behaviour in
// every evaluator — the reference evaluator and engines P, S, G and D,
// at one and four workers — on a closure heavy enough that each
// engine reaches its amortized deadline check: a MaxPairs cap one
// below the count fails with ErrBudget and the evaluator's own wording
// of what it counted, and a 1ns timeout fails with ErrBudget.
func TestBudgetAcrossEvaluators(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	g := randomGraph(r, 400, 1, 1600)
	q := chainQuery(false, "(a)*")
	count, err := eval.CountWith(g, q, eval.Budget{}, eval.EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	limit := count - 1

	type evaluator struct {
		name string
		over string // the cap violation's wording
		run  func(eval.Budget, eval.EvalOptions) (int64, error)
	}
	evaluators := []evaluator{{
		name: "reference",
		over: "more than %d tuples",
		run: func(b eval.Budget, opt eval.EvalOptions) (int64, error) {
			return eval.CountWith(g, q, b, opt)
		},
	}}
	overs := map[string]string{
		"P": "materialized more than %d tuples",
		"S": "more than %d bindings",
		"G": "more than %d traversal steps",
		"D": "materialized more than %d facts",
	}
	for _, eng := range All() {
		evaluators = append(evaluators, evaluator{
			name: "engine " + eng.Name(),
			over: overs[eng.Name()],
			run: func(b eval.Budget, opt eval.EvalOptions) (int64, error) {
				return EvaluateOpt(eng, g, q, b, opt)
			},
		})
	}

	for _, ev := range evaluators {
		for _, workers := range []int{1, 4} {
			opt := eval.EvalOptions{Workers: workers}
			name := fmt.Sprintf("%s workers=%d", ev.name, workers)

			n, err := ev.run(eval.Budget{MaxPairs: limit}, opt)
			want := "eval: budget exceeded: " + fmt.Sprintf(ev.over, limit)
			if !errors.Is(err, eval.ErrBudget) || err.Error() != want {
				t.Errorf("%s: MaxPairs %d below the count %d: got %d, %v; want %q", name, limit, count, n, err, want)
			}

			n, err = ev.run(eval.Budget{Timeout: time.Nanosecond}, opt)
			if !errors.Is(err, eval.ErrBudget) || err.Error() != "eval: budget exceeded: timeout" {
				t.Errorf("%s: 1ns timeout: got %d, %v; want the timeout", name, n, err)
			}
		}
	}
}
