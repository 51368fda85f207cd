package simnet

// ChannelEngine is the faithful distributed simulation: one goroutine per
// nonfaulty node, a buffered channel per incoming link, and a coordinator
// goroutine that releases rounds in lock step and detects global
// stabilization. See the package comment for the model and
// RunChannelsGeneric for the implementation.
type ChannelEngine struct{}

// Channels returns the goroutine-per-node engine.
func Channels() Engine { return ChannelEngine{} }

// Name implements Engine.
func (ChannelEngine) Name() string { return "channels" }

// Run implements Engine.
func (ChannelEngine) Run(env *Env, rule Rule, opt Options) (*Result, error) {
	return RunChannelsGeneric[bool](env, rule, opt)
}
