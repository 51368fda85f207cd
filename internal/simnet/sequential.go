package simnet

// SeqEngine computes the synchronous fixpoint with a double-buffered
// sequential sweep: every round reads the previous round's labels only,
// exactly like the lock-step distributed execution, so its results
// (labels and round counts) are identical to ChannelEngine's.
type SeqEngine struct{}

// Sequential returns the sequential engine.
func Sequential() Engine { return SeqEngine{} }

// Name implements Engine.
func (SeqEngine) Name() string { return "sequential" }

// Run implements Engine.
func (SeqEngine) Run(env *Env, rule Rule, opt Options) (*Result, error) {
	return RunSequentialGeneric[bool](env, rule, opt)
}
