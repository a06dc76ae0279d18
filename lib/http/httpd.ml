(* HTTP/1.1 transport: select-driven, step-pumped, coarse-locked.
   See httpd.mli for the contract.  The connection state machine:

     Reading --request parsed--> (dispatch)
       dispatch -> Respond    -> Draining --outbuf empty--> Reading | close
       dispatch -> Sse        -> Streaming (until EOF / eviction)
       dispatch -> Long_poll  -> Held --publish/deadline--> Draining

   Requests are processed one at a time per connection; pipelined bytes
   wait in [inbuf] until the previous response (or held long-poll) has
   drained. *)

module Replay = Subscribe.Replay

type request = {
  meth : string;
  path : string;
  query : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type action =
  | Respond of response
  | Sse of { channel : string option; cursor : int }
  | Long_poll of { channel : string option; cursor : int }

type conn_state =
  | Reading
  | Draining
  | Streaming of string option  (* channel filter *)
  | Held of { channel : string option; cursor : int; due : int64 }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable state : conn_state;
  mutable close_after : bool;
  mutable read_due : int64;  (* partial request must complete by; 0 = none *)
  mutable drain_due : int64;  (* queued output must drain by; 0 = none *)
  mutable closed : bool;
}

type t = {
  lock : Mutex.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutable conns : conn list;
  ring : (string * string) Replay.t;  (* (channel, payload) *)
  mutable handler : request -> action;
  max_inflight : int;
  deadline_ms : int;  (* 0 disables deadlines *)
  max_buffered : int;
  mutable requests_c : int;
  mutable responses_c : int;
  mutable overloads_c : int;
  mutable deadline_aborts_c : int;
  mutable clients_evicted_c : int;
  mutable clients_dropped_c : int;
  mutable sse_streams_c : int;
  mutable sse_events_c : int;
  mutable stopped : bool;
}

(* --- limits --- *)

let max_head_bytes = 16 * 1024
let max_headers = 64
let max_body_bytes = 1 lsl 20

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let create ?(max_inflight = 64) ?deadline_ms ?(retain = 4096)
    ?(max_buffered = 4 * 1024 * 1024) ~port () =
  let deadline_ms =
    match deadline_ms with
    | Some ms -> max 0 ms
    | None -> Obs.Knobs.request_deadline_ms ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 128;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { lock = Mutex.create ();
    listen_fd = fd;
    bound_port;
    conns = [];
    ring = Replay.create ~retain ();
    handler =
      (fun _ ->
        Respond { status = 404; headers = []; body = "" });
    max_inflight = max 1 max_inflight;
    deadline_ms;
    max_buffered;
    requests_c = 0;
    responses_c = 0;
    overloads_c = 0;
    deadline_aborts_c = 0;
    clients_evicted_c = 0;
    clients_dropped_c = 0;
    sse_streams_c = 0;
    sse_events_c = 0;
    stopped = false;
  }

let set_handler t h = t.handler <- h
let port t = t.bound_port
let connection_count t = List.length t.conns
let requests t = t.requests_c
let responses t = t.responses_c
let overloads t = t.overloads_c
let deadline_aborts t = t.deadline_aborts_c
let clients_evicted t = t.clients_evicted_c
let clients_dropped t = t.clients_dropped_c
let sse_streams t = t.sse_streams_c
let sse_events_sent t = t.sse_events_c
let published t = Replay.published t.ring
let last_gseq t = Replay.last_gseq t.ring
let deadline_ms t = t.deadline_ms
let max_inflight t = t.max_inflight

let inflight_locked t =
  List.fold_left
    (fun acc c ->
      match c.state with
      | (Streaming _ | Held _) when not c.closed -> acc + 1
      | _ -> acc)
    0 t.conns

(* lock-free like the other counters: handlers read it from inside
   [step] (the pumping thread already holds the lock), and a racing
   cross-thread read of the snapshot is benign *)
let inflight t = inflight_locked t

let now_ns () = Obs.Trace.now ()

let due_after t =
  if t.deadline_ms = 0 then 0L
  else Int64.add (now_ns ()) (Int64.of_int (t.deadline_ms * 1_000_000))

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

let add_output t c data =
  Buffer.add_string c.outbuf data;
  if c.drain_due = 0L then c.drain_due <- due_after t;
  if Buffer.length c.outbuf > t.max_buffered then begin
    t.clients_dropped_c <- t.clients_dropped_c + 1;
    close_conn t c
  end

(* --- responses --- *)

let render_head status headers =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.contents buf

let queue_response t c (r : response) =
  t.responses_c <- t.responses_c + 1;
  let headers =
    r.headers
    @ [ ("content-length", string_of_int (String.length r.body));
        ("connection", if c.close_after then "close" else "keep-alive");
      ]
  in
  add_output t c (render_head r.status headers ^ r.body);
  if not c.closed then c.state <- Draining

let error_body msg =
  Printf.sprintf "{\"error\": \"%s\"}" (Obs.Metrics.json_escape msg)

let json_headers = [ ("content-type", "application/json") ]

let queue_error t c status msg =
  c.close_after <- true;
  queue_response t c { status; headers = json_headers; body = error_body msg }

(* --- SSE / long-poll over the replay ring --- *)

let channel_matches filter channel =
  match filter with None -> true | Some c -> c = channel

let sse_event ~id ~event data =
  Printf.sprintf "id: %d\nevent: %s\ndata: %s\n\n" id event data

let start_sse t c ~channel ~cursor =
  t.sse_streams_c <- t.sse_streams_c + 1;
  c.close_after <- true;  (* an event stream never reverts to keep-alive *)
  let head =
    render_head 200
      [ ("content-type", "text/event-stream");
        ("cache-control", "no-cache");
        ("connection", "close");
      ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf head;
  let cursor =
    match Replay.gap_before t.ring ~cursor with
    | Some oldest ->
      Buffer.add_string buf
        (sse_event ~id:(oldest - 1) ~event:"gap"
           (Printf.sprintf "{\"gap\": true, \"oldest\": %d}" oldest));
      oldest - 1
    | None -> cursor
  in
  Replay.iter_from t.ring ~cursor (fun g (ch, payload) ->
      if channel_matches channel ch then begin
        t.sse_events_c <- t.sse_events_c + 1;
        Buffer.add_string buf (sse_event ~id:g ~event:"notification" payload)
      end);
  add_output t c (Buffer.contents buf);
  if not c.closed then c.state <- Streaming channel

let longpoll_body t ~channel ~cursor =
  let gap = Replay.gap_before t.ring ~cursor in
  let events = ref [] in
  Replay.iter_from t.ring
    ~cursor:(match gap with Some oldest -> oldest - 1 | None -> cursor)
    (fun g (ch, payload) ->
      if channel_matches channel ch then
        events :=
          Printf.sprintf "{\"gseq\": %d, \"data\": %s}" g payload :: !events);
  let events = List.rev !events in
  let cursor' =
    if events = [] && gap = None then cursor else Replay.last_gseq t.ring
  in
  let gap =
    match gap with
    | Some oldest -> Printf.sprintf " \"gap\": true, \"oldest\": %d," oldest
    | None -> ""
  in
  ( events <> [],
    Printf.sprintf "{\"cursor\": %d,%s \"events\": [%s]}" cursor' gap
      (String.concat ", " events) )

let answer_longpoll t c ~channel ~cursor =
  let _, body = longpoll_body t ~channel ~cursor in
  queue_response t c { status = 200; headers = json_headers; body }

(* Publish one event: retain, then fan out to matching streams and held
   polls.  Called from the hub's writer domain as well as the pump
   thread, hence the lock. *)
let publish t ~channel payload =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let gseq = Replay.publish t.ring (channel, payload) in
  List.iter
    (fun c ->
      if not c.closed then
        match c.state with
        | Streaming filter when channel_matches filter channel ->
          t.sse_events_c <- t.sse_events_c + 1;
          add_output t c (sse_event ~id:gseq ~event:"notification" payload)
        | Held { channel = filter; cursor; _ }
          when channel_matches filter channel ->
          answer_longpoll t c ~channel:filter ~cursor
        | _ -> ())
    t.conns;
  gseq

(* --- request parsing --- *)

let pct_decode_opt s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - 48)
    | 'a' .. 'f' -> Some (Char.code c - 87)
    | 'A' .. 'F' -> Some (Char.code c - 55)
    | _ -> None
  in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '%' ->
        if i + 2 >= n then None
        else (
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            go (i + 3)
          | _ -> None)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

type parse_outcome =
  | Incomplete  (* need more bytes *)
  | Bad of int * string  (* error status + message; close the connection *)
  | Parsed of request * int  (* request + total bytes consumed *)

let is_token_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true
  | _ -> false

let parse_head data =
  match find_sub data "\r\n\r\n" 0 with
  | None ->
    if String.length data > max_head_bytes then
      Bad (431, "request head too large")
    else Incomplete
  | Some head_end -> (
    let head = String.sub data 0 head_end in
    match String.split_on_char '\n' head with
    | [] -> Bad (400, "empty request")
    | req_line :: header_lines -> (
      let req_line = String.trim req_line in
      let parts =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' req_line)
      in
      match parts with
      | [ meth; target; version ]
        when String.length version >= 7 && String.sub version 0 7 = "HTTP/1."
             && meth <> ""
             && String.for_all is_token_char meth -> (
        let headers = ref [] in
        let bad = ref None in
        List.iter
          (fun line ->
            if !bad = None then
              let line = String.trim line in
              if line <> "" then
                match String.index_opt line ':' with
                | None -> bad := Some "malformed header line"
                | Some i ->
                  if List.length !headers >= max_headers then
                    bad := Some "too many headers"
                  else
                    headers :=
                      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                        String.trim
                          (String.sub line (i + 1) (String.length line - i - 1))
                      )
                      :: !headers)
          header_lines;
        match !bad with
        | Some msg -> Bad (400, msg)
        | None -> (
          let headers = List.rev !headers in
          if List.mem_assoc "transfer-encoding" headers then
            Bad (501, "transfer-encoding not supported")
          else
            let body_len =
              match List.assoc_opt "content-length" headers with
              | None -> Some 0
              | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 0 -> Some n
                | _ -> None)
            in
            match body_len with
            | None -> Bad (400, "bad content-length")
            | Some n when n > max_body_bytes -> Bad (413, "body too large")
            | Some body_len -> (
              let total = head_end + 4 + body_len in
              if String.length data < total then Incomplete
              else
                let body = String.sub data (head_end + 4) body_len in
                let target_path, query =
                  match String.index_opt target '?' with
                  | None -> (target, "")
                  | Some q ->
                    ( String.sub target 0 q,
                      String.sub target (q + 1) (String.length target - q - 1)
                    )
                in
                if String.length target_path = 0 || target_path.[0] <> '/'
                then Bad (400, "bad request target")
                else
                  match pct_decode_opt target_path with
                  | None -> Bad (400, "bad percent-encoding in path")
                  | Some path ->
                    Parsed
                      ( { meth = String.uppercase_ascii meth;
                          path;
                          query;
                          headers;
                          body;
                        },
                        total ))))
      | _ -> Bad (400, "malformed request line")))

(* --- dispatch --- *)

let wants_close (req : request) =
  match List.assoc_opt "connection" req.headers with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

let dispatch t c req =
  t.requests_c <- t.requests_c + 1;
  if wants_close req then c.close_after <- true;
  if inflight_locked t >= t.max_inflight then begin
    t.overloads_c <- t.overloads_c + 1;
    queue_response t c
      { status = 503;
        headers = ("retry-after", "1") :: json_headers;
        body = error_body "overloaded: too many in-flight requests";
      }
  end
  else
    match (try t.handler req with e -> Respond
      { status = 500; headers = json_headers;
        body = error_body (Printexc.to_string e) })
    with
    | Respond r -> queue_response t c r
    | Sse { channel; cursor } -> start_sse t c ~channel ~cursor
    | Long_poll { channel; cursor } ->
      let has_events, body = longpoll_body t ~channel ~cursor in
      if has_events then
        queue_response t c { status = 200; headers = json_headers; body }
      else
        c.state <- Held { channel; cursor; due = due_after t }

(* Process as many complete requests as the state machine allows (one,
   then the connection is Draining until its response is on the wire). *)
let rec try_process t c =
  if (not c.closed) && c.state = Reading then begin
    let data = Buffer.contents c.inbuf in
    if data = "" then c.read_due <- 0L
    else begin
      if c.read_due = 0L then c.read_due <- due_after t;
      match parse_head data with
      | Incomplete -> ()
      | Bad (status, msg) ->
        c.read_due <- 0L;
        t.requests_c <- t.requests_c + 1;
        queue_error t c status msg
      | Parsed (req, consumed) ->
        let rest =
          String.sub data consumed (String.length data - consumed)
        in
        Buffer.clear c.inbuf;
        Buffer.add_string c.inbuf rest;
        c.read_due <- 0L;
        dispatch t c req;
        try_process t c  (* state gates pipelined requests *)
    end
  end

(* --- socket I/O --- *)

let read_conn t c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t c  (* orderly EOF *)
  | n -> (
    match c.state with
    | Reading ->
      Buffer.add_subbytes c.inbuf buf 0 n;
      try_process t c
    | Draining | Held _ ->
      Buffer.add_subbytes c.inbuf buf 0 n  (* pipelined bytes *)
    | Streaming _ -> ()  (* an event stream never reads another request *))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn t c

let write_conn t c =
  let data = Buffer.contents c.outbuf in
  if data <> "" then
    match Unix.write_substring c.fd data 0 (String.length data) with
    | n ->
      Buffer.clear c.outbuf;
      if n < String.length data then
        Buffer.add_substring c.outbuf data n (String.length data - n)
      else begin
        c.drain_due <- 0L;
        if c.state = Draining then
          if c.close_after then close_conn t c
          else begin
            c.state <- Reading;
            try_process t c  (* pipelined request already buffered? *)
          end
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> close_conn t c

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.conns <-
        { fd;
          inbuf = Buffer.create 512;
          outbuf = Buffer.create 1024;
          state = Reading;
          close_after = false;
          read_due = 0L;
          drain_due = 0L;
          closed = false;
        }
        :: t.conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let enforce_deadlines t =
  if t.deadline_ms > 0 then begin
    let now = now_ns () in
    let overdue d = d <> 0L && Int64.compare now d > 0 in
    List.iter
      (fun c ->
        if not c.closed then
          match c.state with
          | Held { channel; cursor; due } when overdue due ->
            (* long-poll hold expired: answer with an empty batch *)
            t.deadline_aborts_c <- t.deadline_aborts_c + 1;
            let _, body = longpoll_body t ~channel ~cursor in
            queue_response t c
              { status = 200; headers = json_headers; body }
          | Reading when overdue c.read_due ->
            (* a partial request stalled: time it out *)
            t.deadline_aborts_c <- t.deadline_aborts_c + 1;
            t.requests_c <- t.requests_c + 1;
            queue_error t c 408 "request deadline exceeded"
          | (Draining | Streaming _) when overdue c.drain_due ->
            (* queued output is not draining: evict the consumer *)
            t.clients_evicted_c <- t.clients_evicted_c + 1;
            close_conn t c
          | _ -> ())
      (* snapshot: queue_response can drop conns via max_buffered *)
      (List.filter (fun c -> not c.closed) t.conns)
  end

let step ?(timeout_ms = 0) t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.stopped then 0
  else begin
    let reads = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
    let writes =
      List.filter_map
        (fun c -> if Buffer.length c.outbuf > 0 then Some c.fd else None)
        t.conns
    in
    let timeout = float_of_int (max 0 timeout_ms) /. 1000.0 in
    match Unix.select reads writes [] timeout with
    | rs, ws, _ ->
      if List.mem t.listen_fd rs then accept_pending t;
      List.iter
        (fun c -> if (not c.closed) && List.mem c.fd rs then read_conn t c)
        t.conns;
      List.iter
        (fun c -> if (not c.closed) && List.mem c.fd ws then write_conn t c)
        t.conns;
      enforce_deadlines t;
      List.length rs + List.length ws
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  end

let stop t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      t.conns;
    t.conns <- [];
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
