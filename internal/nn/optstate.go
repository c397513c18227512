package nn

import "neutronstar/internal/tensor"

// OptState is a serialisable snapshot of an Adam optimiser's internal
// state, aligned with a parameter list by position. Capturing and restoring
// it around a checkpoint makes a resumed run continue the exact update
// trajectory of the uninterrupted one — Adam's moment estimates and step
// count are part of the training state, not an implementation detail.
type OptState struct {
	// Step is Adam's bias-correction step counter t.
	Step int
	// M and V are Adam's first/second moment estimates per parameter, in
	// Params() order. A parameter the optimiser has not stepped yet has
	// zero moments: Step starts a fresh parameter from zero tensors, so
	// restoring zeros continues it bit for bit.
	M, V [][]float32
}

// CaptureOptState snapshots o's state for the given parameter list. The
// returned slices are copies, stable against further training steps.
func CaptureOptState(o *Adam, params []*Param) OptState {
	st := OptState{Step: o.t, M: make([][]float32, len(params)), V: make([][]float32, len(params))}
	for i, p := range params {
		if m, ok := o.m[p]; ok {
			st.M[i] = append([]float32(nil), m.Data()...)
			st.V[i] = append([]float32(nil), o.v[p].Data()...)
		} else {
			st.M[i] = make([]float32, p.Value.Len())
			st.V[i] = make([]float32, p.Value.Len())
		}
	}
	return st
}

// RestoreOptState loads a state captured by CaptureOptState over the same
// parameter list into o, copying the moments. The caller checks the state
// first: M and V must hold one slice per parameter, each as long as the
// parameter (tensor.FromSlice panics otherwise).
func RestoreOptState(o *Adam, params []*Param, st OptState) {
	o.t = st.Step
	o.m = make(map[*Param]*tensor.Tensor, len(params))
	o.v = make(map[*Param]*tensor.Tensor, len(params))
	for i, p := range params {
		o.m[p] = tensor.FromSlice(p.Value.Rows(), p.Value.Cols(), append([]float32(nil), st.M[i]...))
		o.v[p] = tensor.FromSlice(p.Value.Rows(), p.Value.Cols(), append([]float32(nil), st.V[i]...))
	}
}
