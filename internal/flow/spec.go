package flow

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bin"
)

// JobSpec is the serializable form of one unit of work: the name of a
// registered stage kernel plus its encoded arguments. Closures cannot
// cross process boundaries, so a multi-process deployment ships specs — a
// worker in another OS process (or on another host) resolves the kernel
// name against its local Registry and runs it. A spec travels as the
// opaque Payload of a Task, in a positional envelope:
//
//	uvarint len(kernel) · kernel · args
//
// The args bytes are the kernel's own layout; the envelope does not
// interpret them.
type JobSpec struct {
	Kernel string
	Args   []byte
}

// KernelFunc is the executable body of a named job: a pure function of its
// encoded arguments, returning its encoded result. Kernels run on worker
// goroutines and may be invoked concurrently, so they must be safe for
// concurrent use.
type KernelFunc func(args []byte) ([]byte, error)

// BinaryAppender is an argument block that appends its binary layout to
// b (the method set of the standard library's encoding.BinaryAppender).
type BinaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// Registry maps kernel names to their bodies. It is safe for concurrent
// use; registration normally happens once at worker startup.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]KernelFunc
}

// NewRegistry creates an empty kernel registry.
func NewRegistry() *Registry {
	return &Registry{kernels: make(map[string]KernelFunc)}
}

// Register adds a kernel under a name. Empty names, nil funcs, and
// duplicate registrations are errors.
func (r *Registry) Register(name string, fn KernelFunc) error {
	if name == "" {
		return fmt.Errorf("flow: kernel name must be non-empty")
	}
	if fn == nil {
		return fmt.Errorf("flow: kernel %q has nil func", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kernels[name]; dup {
		return fmt.Errorf("flow: kernel %q already registered", name)
	}
	r.kernels[name] = fn
	return nil
}

// Names returns the registered kernel names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.kernels))
	for n := range r.kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run decodes a task payload's spec envelope and executes the named
// kernel on its args.
func (r *Registry) Run(payload []byte) ([]byte, error) {
	kernel, args, err := splitSpec(payload)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	fn, ok := r.kernels[string(kernel)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("flow: unknown kernel %q (registered: %v)", kernel, r.Names())
	}
	return fn(args)
}

// Handler adapts the registry to a worker Handler: every received task is
// expected to carry a spec payload. This is the handler a standalone
// `proteomectl worker` process serves with.
func (r *Registry) Handler() Handler {
	return func(t Task) (json.RawMessage, error) {
		return r.Run(t.Payload)
	}
}

// defaultRegistry is the process-wide registry remote workers serve from.
var defaultRegistry = NewRegistry()

// Register adds a kernel to the process-wide default registry.
func Register(name string, fn KernelFunc) error {
	return defaultRegistry.Register(name, fn)
}

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// SpecHandler returns a worker Handler dispatching against the default
// registry.
func SpecHandler() Handler { return defaultRegistry.Handler() }

// specWhat names the spec envelope in decode errors.
const specWhat = "flow: job spec"

// appendSpecHeader appends the envelope's kernel name.
func appendSpecHeader(b []byte, kernel string) ([]byte, error) {
	if kernel == "" {
		return nil, fmt.Errorf("flow: spec has empty kernel name")
	}
	return bin.AppendString(b, kernel), nil
}

// EncodeSpec builds a task payload from a spec.
func EncodeSpec(spec JobSpec) ([]byte, error) {
	b, err := appendSpecHeader(make([]byte, 0, 1+len(spec.Kernel)+len(spec.Args)), spec.Kernel)
	if err != nil {
		return nil, err
	}
	return append(b, spec.Args...), nil
}

// splitSpec parses a spec envelope without copying: the kernel name and
// the args are views into payload.
func splitSpec(payload []byte) (kernel, args []byte, err error) {
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("flow: task has no spec payload")
	}
	r := bin.NewReader(payload, specWhat)
	if kernel = r.Raw("kernel name"); r.Err() == nil && len(kernel) == 0 {
		r.Fail("kernel name")
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return kernel, r.Rest(), nil
}

// DecodeSpec parses a task payload as a JobSpec; Args is a view into
// payload. Empty payloads, truncated envelopes and specs without a kernel
// name are errors.
func DecodeSpec(payload []byte) (JobSpec, error) {
	kernel, args, err := splitSpec(payload)
	if err != nil {
		return JobSpec{}, err
	}
	return JobSpec{Kernel: string(kernel), Args: args}, nil
}

// NewSpecTask builds a Task carrying a named-job spec. args is the
// kernel's argument block: encoded bytes, a BinaryAppender that encodes
// itself, or nil for none. Any other type is an error: the envelope has
// one encoding.
func NewSpecTask(id string, weight float64, kernel string, args any) (Task, error) {
	var payload []byte
	var err error
	switch a := args.(type) {
	case nil:
		payload, err = EncodeSpec(JobSpec{Kernel: kernel})
	case []byte:
		payload, err = EncodeSpec(JobSpec{Kernel: kernel, Args: a})
	case BinaryAppender:
		// Room for a campaign spec's args, so the payload is allocated once.
		if payload, err = appendSpecHeader(make([]byte, 0, 1+len(kernel)+128), kernel); err == nil {
			if payload, err = a.AppendBinary(payload); err != nil {
				err = fmt.Errorf("flow: encoding args for kernel %q: %w", kernel, err)
			}
		}
	default:
		err = fmt.Errorf("flow: args for kernel %q are a %T, neither []byte nor a BinaryAppender", kernel, args)
	}
	if err != nil {
		return Task{}, err
	}
	return Task{ID: id, Weight: weight, Payload: payload}, nil
}
