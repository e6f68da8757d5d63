package main

// everyFourth is the fixed spot-check policy of the kvstate workload: it
// inspects segments 4, 8, 12, ... (indices 3, 7, 11, ...), so the start
// states it materialises lie progressively deeper in the increment chain.
type everyFourth struct{}

// Pick implements audit.SpotPolicy.
func (everyFourth) Pick(n int) []int {
	var out []int
	for i := 3; i < n; i += 4 {
		out = append(out, i)
	}
	return out
}
