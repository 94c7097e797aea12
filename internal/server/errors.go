package server

import (
	"fmt"
	"net/http"
)

// Code classifies a query-service error so clients can react without
// parsing message text. Codes are stable API contract; messages are not.
type Code string

const (
	// CodeParse: the statement did not parse (or is unsupported CrowdSQL).
	CodeParse Code = "parse_error"
	// CodeBudgetExhausted: the session spent its crowd-comparison budget.
	CodeBudgetExhausted Code = "budget_exhausted"
	// CodeBusy: admission control rejected the query (concurrency slots
	// full or the task manager's submission queue is too deep).
	CodeBusy Code = "server_busy"
	// CodeShuttingDown: the server is draining and takes no new queries.
	CodeShuttingDown Code = "shutting_down"
	// CodeUnknownSession: the request named a session that does not exist
	// (never created, or already closed).
	CodeUnknownSession Code = "unknown_session"
	// CodeTooManySessions: the session cap is reached.
	CodeTooManySessions Code = "too_many_sessions"
	// CodeInternal: execution failed after admission (storage, platform,
	// or engine errors).
	CodeInternal Code = "internal"
	// CodeUnknownJob: the request named a job id that does not exist (or
	// was evicted by the finished-job retention cap).
	CodeUnknownJob Code = "unknown_job"
	// CodeCancelled: the job was cancelled by a client DELETE before it
	// completed.
	CodeCancelled Code = "cancelled"
	// CodeSessionClosed: the job's session was closed while the query was
	// in flight; the job fails with this code (its crowd work already
	// paid for settles, nothing new is posted).
	CodeSessionClosed Code = "session_closed"
	// CodeInterrupted: a server restart cut the job short and its script
	// could not be resumed (it contains writes, or its session did not
	// survive the restart). Rows streamed before the restart are retained.
	CodeInterrupted Code = "interrupted"
)

// Error is a coded query-service error.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus maps the code to its HTTP response status.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeParse, CodeUnknownSession:
		return http.StatusBadRequest
	case CodeUnknownJob:
		return http.StatusNotFound
	case CodeBudgetExhausted:
		return http.StatusTooManyRequests
	case CodeBusy, CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeTooManySessions:
		return http.StatusTooManyRequests
	case CodeCancelled, CodeSessionClosed, CodeInterrupted:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}
