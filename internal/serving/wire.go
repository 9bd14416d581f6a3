// Wire protocol of the serving gateway.
//
// The §4.2 classifier protocol carried bare length-prefixed tensors; the
// gateway extends each request with a model-name/version header and each
// response with an explicit status code, so one endpoint can serve many
// models and clients can distinguish overload (back off and retry) from
// hard failures. Frames remain length-prefixed so the protocol runs
// unchanged over plain TCP and over the network shield's TLS.
//
// The codec is exported because the router tier (internal/serving/router)
// speaks the same protocol on both sides: it decodes client requests,
// forwards them to backend gateways and relays the responses. Responses
// carry the serving node's virtual service time, so a multi-hop caller
// can attribute per-step enclave cost without sharing a clock.
package serving

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/tf"
)

// Status is the response status code on the wire.
type Status uint8

// Response statuses.
const (
	// StatusOK carries a result tensor.
	StatusOK Status = 0
	// StatusOverloaded signals admission-control rejection: the model's
	// request queue is full. Clients should back off and retry.
	StatusOverloaded Status = 1
	// StatusNotFound signals an unknown model name or version.
	StatusNotFound Status = 2
	// StatusBadRequest signals a malformed or incompatible input tensor.
	StatusBadRequest Status = 3
	// StatusShuttingDown signals the gateway is draining.
	StatusShuttingDown Status = 4
	// StatusInternal signals an interpreter failure.
	StatusInternal Status = 5
	// StatusModels answers a ListModels request: the response Message
	// carries the sorted, comma-joined registered model names.
	StatusModels Status = 6
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusOverloaded:
		return "OVERLOADED"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusShuttingDown:
		return "SHUTTING_DOWN"
	case StatusInternal:
		return "INTERNAL"
	case StatusModels:
		return "MODELS"
	default:
		return fmt.Sprintf("STATUS_%d", uint8(s))
	}
}

const (
	// protoVersion is the first byte of every request and response
	// payload, so protocol evolution stays detectable.
	protoVersion = 2
	// maxModelName bounds the model-name header field.
	maxModelName = 1 << 10
)

// DefaultModelName is the registry name single-model deployments publish
// under; a client request with an empty model name resolves to it.
const DefaultModelName = "default"

const (
	// flagArgmax asks the server to reduce the output to the argmax class
	// per row before responding — the classic classifier contract: only
	// the label leaves the enclave, and the response is 4 bytes/row
	// instead of a full probability vector.
	flagArgmax = 1 << 0
	// flagModels marks a control request asking for the registered model
	// names instead of an inference; it carries no tensor and may leave
	// the model name empty.
	flagModels = 1 << 1
)

// WireRequest is one decoded inference request.
type WireRequest struct {
	Model   string
	Version int // 0 requests the current serving version
	Argmax  bool
	// ListModels asks for the registered model names instead of an
	// inference; Input is nil on such requests.
	ListModels bool
	Input      *tf.Tensor
}

// WriteRequest encodes and sends a request frame.
func WriteRequest(w io.Writer, req WireRequest) error {
	if len(req.Model) > maxModelName || (len(req.Model) == 0 && !req.ListModels) {
		return fmt.Errorf("serving: model name of %d bytes", len(req.Model))
	}
	if req.Version < 0 {
		return fmt.Errorf("serving: negative model version %d", req.Version)
	}
	var flags byte
	if req.Argmax {
		flags |= flagArgmax
	}
	var enc []byte
	if req.ListModels {
		flags |= flagModels
	} else {
		enc = tf.EncodeTensor(req.Input)
	}
	payload := make([]byte, 0, 1+1+2+len(req.Model)+4+len(enc))
	payload = append(payload, protoVersion, flags)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(req.Model)))
	payload = append(payload, req.Model...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(req.Version))
	payload = append(payload, enc...)
	return WriteFrame(w, payload)
}

// ReadRequest reads and decodes a request frame.
func ReadRequest(r io.Reader) (WireRequest, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return WireRequest{}, err
	}
	if len(payload) < 1+1+2 || payload[0] != protoVersion {
		return WireRequest{}, fmt.Errorf("serving: bad request header")
	}
	flags := payload[1]
	list := flags&flagModels != 0
	nameLen := int(binary.LittleEndian.Uint16(payload[2:]))
	rest := payload[4:]
	if (nameLen == 0 && !list) || nameLen > maxModelName || len(rest) < nameLen+4 {
		return WireRequest{}, fmt.Errorf("serving: bad request model header")
	}
	req := WireRequest{
		Model:      string(rest[:nameLen]),
		Version:    int(binary.LittleEndian.Uint32(rest[nameLen:])),
		Argmax:     flags&flagArgmax != 0,
		ListModels: list,
	}
	if !list {
		input, err := tf.DecodeTensor(rest[nameLen+4:])
		if err != nil {
			return WireRequest{}, fmt.Errorf("serving: decode request tensor: %w", err)
		}
		req.Input = input
	}
	return req, nil
}

// WireResponse is one decoded inference response.
type WireResponse struct {
	Status  Status
	Version int // the model version that served an OK response
	// ServiceVtime is the virtual time the serving node charged this
	// request (enqueue → response ready on the node's own clock). A
	// router summing these across graph steps attributes per-step enclave
	// cost without the nodes sharing a clock.
	ServiceVtime time.Duration
	Output       *tf.Tensor
	Message      string
}

// WriteResponse encodes and sends a response frame.
func WriteResponse(w io.Writer, resp WireResponse) error {
	var body []byte
	if resp.Status == StatusOK {
		body = tf.EncodeTensor(resp.Output)
	} else {
		body = []byte(resp.Message)
	}
	payload := make([]byte, 0, 1+1+4+8+len(body))
	payload = append(payload, protoVersion, byte(resp.Status))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(resp.Version))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(resp.ServiceVtime))
	payload = append(payload, body...)
	return WriteFrame(w, payload)
}

// ReadResponse reads and decodes a response frame.
func ReadResponse(r io.Reader) (WireResponse, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return WireResponse{}, err
	}
	if len(payload) < 1+1+4+8 || payload[0] != protoVersion {
		return WireResponse{}, fmt.Errorf("serving: bad response header")
	}
	resp := WireResponse{
		Status:       Status(payload[1]),
		Version:      int(binary.LittleEndian.Uint32(payload[2:])),
		ServiceVtime: time.Duration(binary.LittleEndian.Uint64(payload[6:])),
	}
	body := payload[14:]
	if resp.Status == StatusOK {
		out, err := tf.DecodeTensor(body)
		if err != nil {
			return WireResponse{}, fmt.Errorf("serving: decode response tensor: %w", err)
		}
		resp.Output = out
	} else {
		resp.Message = string(body)
	}
	return resp, nil
}

// maxFrame bounds a length-prefixed frame on the wire, so a hostile
// length prefix cannot size an allocation.
const maxFrame = 1 << 30

// WriteFrame writes one length-prefixed payload (4-byte little-endian
// length, then the bytes). The router tier frames its handshake with it
// too.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload, enforcing maxFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("serving: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
