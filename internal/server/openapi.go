package server

// The OpenAPI contract for the HTTP API. The YAML document is assembled
// here — next to the handlers it describes — so the spec, the routes,
// and the error codes cannot drift silently: openapi_test.go fails when
// a route of the table in http.go, a job state, or an error code is
// missing from the document, and cmd/crowdopenapi -check fails CI when
// the committed docs/openapi.yaml is stale. (The container has no
// third-party YAML loader; the load check validates structure and
// coverage instead of a full kin-openapi parse.)

import "fmt"

// openAPIVersion is the spec's document version; bump on breaking
// contract changes.
const openAPIVersion = "3.0.0"

// errorCodes lists every stable coded error the API can return.
func errorCodes() []Code {
	return []Code{
		CodeParse, CodeBudgetExhausted, CodeBusy, CodeShuttingDown,
		CodeUnknownSession, CodeTooManySessions, CodeInternal,
		CodeUnknownJob, CodeCancelled, CodeSessionClosed,
		CodeInterrupted,
	}
}

// jobStates lists the job lifecycle states the spec enumerates.
func jobStates() []JobState {
	return []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobInterrupted}
}

// OpenAPISpec renders the OpenAPI 3.0 document for the HTTP API as YAML.
func OpenAPISpec() []byte {
	states := ""
	for _, s := range jobStates() {
		states += fmt.Sprintf("          - %s\n", s)
	}
	codes := ""
	for _, c := range errorCodes() {
		codes += fmt.Sprintf("              - %s\n", c)
	}
	return []byte(fmt.Sprintf(`openapi: 3.0.3
info:
  title: CrowdDB Jobs API
  description: >-
    Asynchronous, streaming, cancellable query lifecycle for crowddbd.
    Queries run as jobs: submit, poll or stream partial rows while the
    crowd works, cancel, and settle the session budget for work already
    paid. This is the server's only client-facing surface: every
    statement is a job. The synchronous POST /query and the TCP wire
    protocol of the 1.x documents are gone (2.0.0); pkg/client.Query is
    the synchronous convenience form.
  version: %q
paths:
  /v1/queries:
    post:
      summary: Submit a CrowdSQL script as an asynchronous query job
      description: >-
        With budget-aware admission enabled (crowddbd -admission-headroom),
        a script whose optimizer forecast exceeds the session's remaining
        crowd budget times the headroom factor is rejected synchronously
        with the coded budget_exhausted error — before a single HIT group
        is posted, having spent exactly zero cents.
        Submit-and-stream: sent with "Accept: application/x-ndjson" the
        202 response is itself the job's NDJSON stream — line 1 is the
        job resource, followed by exactly what GET
        /v1/queries/{id}/rows?from=0 streams (rows, then the terminal job
        resource). A whole statement is then one HTTP exchange. Line 1
        leaves with the job's first output, its first wait — for an
        execution slot or the crowd — or its end, whichever comes first:
        a statement that never waits is answered in one write. A rejected
        submit is a plain JSON error either way; a stream that drops is
        resumed with GET .../rows?from=N.
      requestBody:
        required: true
        content:
          application/json:
            schema:
              $ref: '#/components/schemas/QueryRequest'
      responses:
        '202':
          description: >-
            Job accepted (state queued or running). application/x-ndjson
            only when the request's Accept header asks for it.
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Job'
            application/x-ndjson:
              schema:
                $ref: '#/components/schemas/RowStreamLine'
        default:
          $ref: '#/components/responses/Error'
    get:
      summary: List retained jobs, newest first
      responses:
        '200':
          description: Retained job resources
          content:
            application/json:
              schema:
                type: object
                properties:
                  jobs:
                    type: array
                    items:
                      $ref: '#/components/schemas/Job'
  /v1/queries/{id}:
    parameters:
      - $ref: '#/components/parameters/JobID'
    get:
      summary: Poll one job resource
      responses:
        '200':
          description: Job resource
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Job'
        default:
          $ref: '#/components/responses/Error'
    delete:
      summary: Request cancellation (idempotent)
      description: >-
        The running statement stops posting new HIT groups within one
        scheduler tick; queued submissions are withdrawn, singleflight
        claims released, and the session budget settles for work already
        paid. Poll for the terminal state (cancelled, or failed with
        session_closed when the session was closed instead).
      responses:
        '200':
          description: Current job snapshot (poll for the terminal state)
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Job'
        default:
          $ref: '#/components/responses/Error'
  /v1/queries/{id}/rows:
    parameters:
      - $ref: '#/components/parameters/JobID'
      - name: from
        in: query
        required: false
        schema:
          type: integer
          minimum: 0
        description: Row index to resume the stream from
    get:
      summary: Stream the job's result rows as they are produced
      description: >-
        Rows stream while the job runs; the response ends when the job
        reaches a terminal state. Until the job first waits — for an
        execution slot or the crowd — nothing is flushed: its rows leave
        when the server's write buffer fills or the job ends, and a job
        that never waits is answered in one write. Default framing is
        NDJSON (one JSON
        array of nullable strings per row, then one trailer object: the
        terminal job resource, whose state and error fields say how the
        job ended and which saves the closing GET /v1/queries/{id});
        with "Accept: text/event-stream" the same data arrives as SSE
        "row" events followed by one "end" event carrying that resource.
        With durable jobs enabled (crowddbd -data), row offsets
        are stable across server restarts: a row is journaled before it
        is observable, so a client that reconnects with ?from=N after a
        crash — even to a job that resumed execution on the restarted
        server — sees neither duplicate nor missing rows.
      responses:
        '200':
          description: NDJSON or SSE partial-result stream
          content:
            application/x-ndjson:
              schema:
                $ref: '#/components/schemas/RowStreamLine'
            text/event-stream:
              schema:
                type: string
        '404':
          description: >-
            Unknown or evicted job: ids the server never issued and jobs
            already retired by the finished-job retention cap (MaxJobs)
            both return the coded unknown_job error. Resuming a stream
            with ?from=N after eviction is NOT silently empty — clients
            must treat this as "re-submit the query".
          content:
            application/json:
              schema:
                type: object
                properties:
                  error:
                    $ref: '#/components/schemas/Error'
        default:
          $ref: '#/components/responses/Error'
  /v1/queries/{id}/trace:
    parameters:
      - $ref: '#/components/parameters/JobID'
    get:
      summary: Fetch the job's trace span tree
      description: >-
        One span tree per job: parsing, then per statement the optimizer
        (with the chosen plan's cost snapshot), the pinned MVCC snapshot,
        every executor operator's rows and wall time, and each crowd HIT
        group's post-to-quorum lifecycle. Live jobs return the tree so
        far. Unknown and retention-evicted jobs — and known jobs whose
        trace was evicted from the tracer's ring or recorded with tracing
        disabled — return the coded unknown_job 404.
      responses:
        '200':
          description: Trace span tree
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Trace'
        '404':
          description: Unknown job, evicted job, or no retained trace
          content:
            application/json:
              schema:
                type: object
                properties:
                  error:
                    $ref: '#/components/schemas/Error'
        default:
          $ref: '#/components/responses/Error'
  /metrics:
    get:
      summary: Prometheus text exposition (format 0.0.4)
      description: >-
        Counters, gauges, and histograms for the whole stack: statements
        and crowd spend, comparison-memo hits, misses and shared flights,
        task-manager in-flight groups and round-trip latency, per-shard WAL fsync
        latency and batch size, MVCC retained versions and GC reclaims,
        and job/session service counters.
      responses:
        '200':
          description: Metric families
          content:
            text/plain:
              schema:
                type: string
  /session:
    post:
      summary: Create a session with a crowd-comparison budget
      requestBody:
        required: false
        content:
          application/json:
            schema:
              type: object
              properties:
                budget:
                  type: integer
                  description: >-
                    0 = server default, negative = unlimited
      responses:
        '200':
          description: Session resource
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Session'
        default:
          $ref: '#/components/responses/Error'
  /session/{id}:
    parameters:
      - name: id
        in: path
        required: true
        schema:
          type: string
    get:
      summary: Fetch a session resource
      responses:
        '200':
          description: Session resource
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Session'
        default:
          $ref: '#/components/responses/Error'
    delete:
      summary: Close a session, cancelling its in-flight jobs
      description: >-
        In-flight jobs of the session fail with the coded session_closed
        state instead of running orphaned.
      responses:
        '200':
          description: Closed
        default:
          $ref: '#/components/responses/Error'
  /stats:
    get:
      summary: Server, session, cache, scheduler, and cost-model counters
      description: >-
        The cache object carries Hits, Misses, Shared and Size. Cap and
        Evictions of the 2.x documents are gone (3.0.0): the comparison
        memo has no residency cap, every paid answer stays resident.
      responses:
        '200':
          description: Stats report
          content:
            application/json:
              schema:
                type: object
  /healthz:
    get:
      summary: Liveness and build info (503 while draining)
      responses:
        '200':
          description: Serving
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Healthz'
        '503':
          description: Draining
          content:
            application/json:
              schema:
                $ref: '#/components/schemas/Healthz'
components:
  parameters:
    JobID:
      name: id
      in: path
      required: true
      schema:
        type: string
        pattern: '^j[0-9]{6,}$'
  responses:
    Error:
      description: Coded error
      content:
        application/json:
          schema:
            type: object
            properties:
              error:
                $ref: '#/components/schemas/Error'
  schemas:
    QueryRequest:
      type: object
      required: [sql]
      properties:
        sql:
          type: string
          description: CrowdSQL script (one or more ;-separated statements)
        session:
          type: string
          description: Registered session id; empty = anonymous one-shot
    RowStreamLine:
      description: >-
        One line of an NDJSON row stream. Rows are arrays of nullable
        strings (null = SQL NULL / CNULL); the last line — the trailer —
        is the terminal job resource. A submit-and-stream response
        additionally starts with the accepted job resource.
      oneOf:
        - type: array
          items:
            type: string
            nullable: true
        - $ref: '#/components/schemas/Job'
    Job:
      type: object
      required: [id, state]
      properties:
        id:
          type: string
        state:
          type: string
          description: >-
            interrupted is reached only across a server restart, when the
            durable journal held the job mid-flight and its script could
            not be resumed (it contains writes, or its session did not
            survive); the job's journaled rows remain readable
          enum:
%s        session:
          type: string
        columns:
          type: array
          items:
            type: string
        rows_emitted:
          type: integer
        affected:
          type: integer
        plan:
          type: string
        warnings:
          type: array
          items:
            type: string
        statements_done:
          type: integer
        stats:
          type: object
        predicted_cents:
          type: number
        predicted_seconds:
          type: number
        spent_cents:
          type: number
          description: Crowd spend committed so far (live while running)
        actual_cents:
          type: number
        snapshot_ts:
          type: integer
          description: >-
            MVCC commit timestamp the latest SELECT's snapshot pinned;
            every streamed row is the database as of that instant, even
            while concurrent writers commit mid-crowd-wait
        trace_id:
          type: string
          description: >-
            Name of the job's span tree at GET /v1/queries/{id}/trace
            (absent when the engine runs with tracing disabled)
        error:
          $ref: '#/components/schemas/Error'
    Session:
      type: object
      properties:
        id:
          type: string
        queries:
          type: integer
        budget_left:
          type: integer
        stats:
          type: object
    Trace:
      type: object
      required: [trace_id, root]
      properties:
        trace_id:
          type: string
        duration_micros:
          type: integer
        spans:
          type: integer
        root:
          $ref: '#/components/schemas/Span'
    Span:
      type: object
      required: [name]
      properties:
        name:
          type: string
        start_micros:
          type: integer
          description: Offset from the trace start
        duration_micros:
          type: integer
        attrs:
          type: object
          additionalProperties:
            type: string
        events:
          type: array
          items:
            type: string
        children:
          type: array
          items:
            $ref: '#/components/schemas/Span'
    Healthz:
      type: object
      required: [status]
      properties:
        status:
          type: string
          enum:
            - ok
            - draining
        version:
          type: string
        uptime_seconds:
          type: number
        shards:
          type: integer
        active_sessions:
          type: integer
        active_jobs:
          type: integer
    Error:
      type: object
      required: [code, message]
      properties:
        code:
          type: string
          enum:
%s        message:
          type: string
`, openAPIVersion, states, codes))
}
