// Package api is the deadapi analyzer's golden input: a public package
// whose exports are used from package app, from app's tests only, from
// nowhere, or only through values and interfaces — plus the marks that
// keep an export, and the marks that are wrong.
package api

import "fmt"

// Used is called from app.
func Used() { selfOnly() }

func Unused() {} // want `exported func Unused: no other package uses it`

// OnlyTested is called from app's _test.go file, which keeps nothing.
func OnlyTested() {} // want `exported func OnlyTested: only tests use it from other packages`

// SelfOnly is called only from this package.
func SelfOnly() {} // want `exported func SelfOnly: no other package uses it`

func selfOnly() { SelfOnly() }

// Kept has no user but states why it stays.
//
//hbvet:api -- user need: the golden input's justified export
func Kept() {}

// Bare carries a mark with no reason: the mark is a finding, and it keeps
// nothing.
//
//hbvet:api // want `//hbvet:api mark is missing its reason`
func Bare() {} // want `exported func Bare: no other package uses it`

// Stale is marked but app uses it.
//
//hbvet:api -- user need: a mark that outlived its reason // want `func Stale is used from another package; drop its //hbvet:api mark`
func Stale() {}

// Conn is reached only through NewConn's result: no use names the type.
type Conn struct{}

// NewConn is called from app.
func NewConn() *Conn { return &Conn{} }

// Send is called from app.
func (c *Conn) Send() {}

func (c *Conn) Idle() {} // want `exported method Conn\.Idle: no other package uses it`

// String is called by fmt, which the module's index cannot see.
func (c *Conn) String() string { return "conn" }

// Sender is the interface Drive calls through.
type Sender interface{ Send() }

// Drive calls Send through Sender, inside this package.
func Drive(s Sender) { s.Send() }

// Pipe's methods are reached only through interfaces: Sender's Send,
// called in this package, and io.Writer's Write, called by fmt.
type Pipe struct{}

// NewPipe is called from app.
func NewPipe() *Pipe { return &Pipe{} }

// Send satisfies Sender.
func (p *Pipe) Send() {}

// Write satisfies io.Writer; app passes a Pipe to fmt.Fprint.
func (p *Pipe) Write(b []byte) (int, error) { return len(b), nil }

// Flush satisfies no interface anyone calls.
func (p *Pipe) Flush() {} // want `exported method Pipe\.Flush: no other package uses it`

// Handle's mark covers its methods.
//
//hbvet:api -- user need: the golden input's justified type
type Handle struct{}

// Extra is covered by Handle's mark.
func (Handle) Extra() {}

// Box is generic: app's use of an instance reaches the declaration.
type Box[T any] struct{ v T }

// NewBox is called from app.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v} }

// Get is called from app on a Box[int].
func (b *Box[T]) Get() T { return b.v }

// Color values are an enumeration.
type Color int

// The group's mark covers Green, which nobody uses.
//
//hbvet:api -- paper section: the golden input's enumeration
const (
	Red Color = iota
	Green
)

// Limit is a lone constant nobody uses.
const Limit = 3 // want `exported const Limit: no other package uses it`

var Counter int // want `exported var Counter: no other package uses it`

type hidden struct{}

// Exported methods of unexported types are out of scope.
func (hidden) Method() {}

var _ = fmt.Sprint(hidden{})
