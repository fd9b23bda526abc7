package netsim

// Helpers only the tests use: convenience constructors that register at
// the next free id, a drain-everything driver, and PFC/waiter probes.

// Run executes events until the queue drains.
func (n *Network) Run() {
	for n.Q.Step() {
	}
}

// NewHost creates a host and registers it with the network at the next free
// id.
func NewHost(net *Network, name string) *Host {
	return NewHostAt(net, name, len(net.nodes))
}

// NewSwitch creates a switch node and registers it with the network at the
// next free id.
func NewSwitch(net *Network, cfg SwitchConfig) *Switch {
	return NewSwitchAt(net, cfg, len(net.nodes))
}

// Paused reports whether the given priority is PFC-paused at this port's
// transmitter.
func (p *Port) Paused(prio int) bool { return p.paused[prio] }

// WaiterFunc adapts a bare function to Waiter for tests that never
// snapshot; it serializes as WaiterNone and panics on restore.
type WaiterFunc func()

// NICReady implements Waiter.
func (f WaiterFunc) NICReady() { f() }

// WaiterID implements Waiter.
func (f WaiterFunc) WaiterID() (uint8, FlowID) { return WaiterNone, 0 }
