package simnet

// FusedBitset is BitsetEngine at an explicit fuse depth (rounds per
// barrier), so the fused-equivalence tests can pin depths other than
// the production fuseDepth.
type FusedBitset struct{ Workers, Fuse int }

// Name implements Engine.
func (FusedBitset) Name() string { return "bitset" }

// Run implements Engine.
func (e FusedBitset) Run(env *Env, rule Rule, opt Options) (*Result, error) {
	return boolResult(runBitset(env, rule, opt.generic(), e.Workers, e.Fuse))
}
