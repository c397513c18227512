package nn

import (
	"fmt"

	"neutronstar/internal/tensor"
)

// OptState is a serialisable snapshot of an optimiser's internal state,
// aligned with a parameter list by position. Capturing and restoring it
// around a checkpoint makes a resumed run continue the exact update
// trajectory of the uninterrupted one — Adam's moment estimates and step
// count are part of the training state, not an implementation detail.
type OptState struct {
	// Algo names the optimiser: always "adam" when captured, and checked on
	// restore because it is read back from a file.
	Algo string
	// Step is Adam's bias-correction step counter t.
	Step int
	// M and V are Adam's first/second moment estimates per parameter, in
	// Params() order. Entries are nil for parameters the optimiser has not
	// stepped yet.
	M, V [][]float32
}

// CaptureOptState snapshots o's state for the given parameter list. The
// returned slices are copies, stable against further training steps.
func CaptureOptState(o *Adam, params []*Param) OptState {
	st := OptState{Algo: "adam", Step: o.t,
		M: make([][]float32, len(params)), V: make([][]float32, len(params))}
	for i, p := range params {
		if m, ok := o.m[p]; ok {
			st.M[i] = append([]float32(nil), m.Data()...)
			st.V[i] = append([]float32(nil), o.v[p].Data()...)
		}
	}
	return st
}

// RestoreOptState checks a state captured by CaptureOptState against the
// same parameter list (matched by position; shapes must agree) and returns
// the function that loads it into o. Every check runs here and apply cannot
// fail, so a caller restoring several optimisers can check all of their
// states before it mutates any.
func RestoreOptState(o *Adam, params []*Param, st OptState) (apply func(), err error) {
	if st.Algo != "adam" {
		return nil, fmt.Errorf("nn: optimiser state is %q, optimiser is adam", st.Algo)
	}
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return nil, fmt.Errorf("nn: optimiser state covers %d params, model has %d",
			len(st.M), len(params))
	}
	for i, p := range params {
		want := p.Value.Rows() * p.Value.Cols()
		if st.M[i] == nil != (st.V[i] == nil) || (st.M[i] != nil && (len(st.M[i]) != want || len(st.V[i]) != want)) {
			return nil, fmt.Errorf("nn: optimiser state for param %s has %d/%d moments, want %d",
				p.Name, len(st.M[i]), len(st.V[i]), want)
		}
	}
	return func() {
		o.t = st.Step
		o.m = make(map[*Param]*tensor.Tensor, len(params))
		o.v = make(map[*Param]*tensor.Tensor, len(params))
		for i, p := range params {
			if st.M[i] == nil {
				continue
			}
			o.m[p] = tensor.FromSlice(p.Value.Rows(), p.Value.Cols(), append([]float32(nil), st.M[i]...))
			o.v[p] = tensor.FromSlice(p.Value.Rows(), p.Value.Cols(), append([]float32(nil), st.V[i]...))
		}
	}, nil
}
