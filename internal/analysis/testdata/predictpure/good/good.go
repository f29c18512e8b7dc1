// Package fix is the known-good fixture for the predictpure analyzer: its
// Predict only reads state (through a pure same-package helper), local
// bindings are not mutations, and the dot-product-memo pattern carries a
// documented allow directive.
package fix

type pred struct {
	table     []int8
	hist      uint64
	memoPC    uint64
	memoValid bool
}

// output is a pure helper: it reads the table, never writes it.
func (p *pred) output(pc uint64) int {
	y := int(p.table[int(pc)%len(p.table)])
	if p.hist&1 == 1 {
		y++
	}
	return y
}

func (p *pred) Predict(pc uint64) bool {
	y := p.output(pc) // pure helper call: not a violation
	y += 0            // rebinding a local is not a state mutation
	// A Predict-side memo: Update consults it only on a PC match and
	// always invalidates it, so the write is observationally pure.
	//bplint:allow predictpure memo never changes an outcome; Update invalidates it on every call
	p.memoPC, p.memoValid = pc, true
	return y >= 0
}

func (p *pred) Update(pc uint64, taken bool) {
	p.memoValid = false
	if taken {
		p.table[int(pc)%len(p.table)]++
	} else {
		p.table[int(pc)%len(p.table)]--
	}
	p.hist = p.hist<<1 | 1
}
