(* Tests for the analysis-as-a-service subsystem: the length-prefixed
   frame protocol (malformed input must become structured errors, never
   exceptions), request/response JSON round-trips, QoS clamping, and an
   in-process daemon exercised by real socket clients — concurrent
   determinism, layered admission control with pinned rejection shapes,
   graceful drain via the shutdown op, and survival under serve.io
   chaos. *)

module P = Serve.Protocol
module S = Serve.Server
module C = Serve.Client
module H = Serve.Handler
module FS = Engine.Faultsim
module J = Telemetry.Json

(* ---------- framing ---------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let read_err_name = function
  | P.Eof -> "eof"
  | P.Truncated -> "truncated"
  | P.Oversized n -> Printf.sprintf "oversized(%d)" n
  | P.Corrupt m -> Printf.sprintf "corrupt(%s)" m
  | P.Bad_json m -> Printf.sprintf "bad_json(%s)" m

let expect_frame fd =
  match P.read_frame fd with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "expected a frame, got %s" (read_err_name e)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let docs =
    [
      J.Obj [ ("id", J.Int 1); ("op", J.Str "ping") ];
      J.Obj
        [
          ("nested", J.Obj [ ("xs", J.Arr [ J.Int 1; J.Float 2.5; J.Null ]) ]);
          ("s", J.Str "u\ttf \"quoted\"");
        ];
      J.Arr [];
      J.Str "";
    ]
  in
  List.iter
    (fun doc ->
      P.write_frame a doc;
      let got = expect_frame b in
      Alcotest.(check string) "frame round-trips textually"
        (J.to_string doc) (J.to_string got))
    docs

let test_frame_eof_and_truncated () =
  with_socketpair (fun a b ->
      Unix.close a;
      match P.read_frame b with
      | Error P.Eof -> ()
      | r ->
        Alcotest.failf "clean close must be Eof, got %s"
          (match r with Ok _ -> "a frame" | Error e -> read_err_name e));
  with_socketpair (fun a b ->
      (* a full header promising 100 bytes, then only 3 bytes of payload *)
      let hdr = Bytes.of_string "\x00\x00\x00\x64abc" in
      ignore (Unix.write a hdr 0 (Bytes.length hdr));
      Unix.close a;
      match P.read_frame b with
      | Error P.Truncated -> ()
      | r ->
        Alcotest.failf "torn frame must be Truncated, got %s"
          (match r with Ok _ -> "a frame" | Error e -> read_err_name e));
  with_socketpair (fun a b ->
      (* half a length prefix *)
      ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
      Unix.close a;
      match P.read_frame b with
      | Error P.Truncated -> ()
      | r ->
        Alcotest.failf "torn header must be Truncated, got %s"
          (match r with Ok _ -> "a frame" | Error e -> read_err_name e))

let test_frame_oversized_resyncs () =
  with_socketpair @@ fun a b ->
  let big = J.Str (String.make 256 'x') in
  let small = J.Obj [ ("ok", J.Bool true) ] in
  P.write_frame a big;
  P.write_frame a small;
  (match P.read_frame ~max_frame:64 b with
  | Error (P.Oversized n) ->
    Alcotest.(check bool) "reported length is plausible" true (n > 64)
  | r ->
    Alcotest.failf "must be Oversized, got %s"
      (match r with Ok _ -> "a frame" | Error e -> read_err_name e));
  (* the oversized payload was consumed: the stream is still framed *)
  let got = P.read_frame ~max_frame:64 b in
  match got with
  | Ok doc ->
    Alcotest.(check string) "next frame survives" (J.to_string small)
      (J.to_string doc)
  | Error e -> Alcotest.failf "stream lost sync: %s" (read_err_name e)

let test_frame_corrupt_and_bad_json () =
  with_socketpair (fun a b ->
      (* an implausible length (way past hard_max_frame) is corruption *)
      ignore (Unix.write a (Bytes.of_string "\xff\xff\xff\xff") 0 4);
      match P.read_frame b with
      | Error (P.Corrupt _) -> ()
      | r ->
        Alcotest.failf "hostile length must be Corrupt, got %s"
          (match r with Ok _ -> "a frame" | Error e -> read_err_name e));
  with_socketpair (fun a b ->
      let garbage = "this is { not json" in
      let hdr = Bytes.create 4 in
      Bytes.set_uint8 hdr 0 0;
      Bytes.set_uint8 hdr 1 0;
      Bytes.set_uint8 hdr 2 0;
      Bytes.set_uint8 hdr 3 (String.length garbage);
      ignore (Unix.write a hdr 0 4);
      ignore (Unix.write_substring a garbage 0 (String.length garbage));
      P.write_frame a (J.Obj [ ("after", J.Bool true) ]);
      (match P.read_frame b with
      | Error (P.Bad_json _) -> ()
      | r ->
        Alcotest.failf "must be Bad_json, got %s"
          (match r with Ok _ -> "a frame" | Error e -> read_err_name e));
      (* bad JSON is per-frame: the connection keeps serving *)
      let doc = expect_frame b in
      Alcotest.(check string) "frame after bad JSON survives"
        {|{"after":true}|} (J.to_string doc))

(* ---------- request / response documents ---------- *)

let test_request_parsing () =
  let parse doc =
    match P.request_of_json doc with
    | Ok r -> r
    | Error m -> Alcotest.failf "request refused: %s" m
  in
  let r = parse (J.Obj [ ("id", J.Int 7); ("op", J.Str "ping") ]) in
  Alcotest.(check string) "id echoed" "7" (J.to_string r.P.id);
  Alcotest.(check string) "params default to {}" "{}" (J.to_string r.P.params);
  Alcotest.(check bool) "default qos has no deadline" true
    (r.P.qos.P.deadline_s = None);
  let r =
    parse
      (J.Obj
         [
           ("id", J.Str "a");
           ("op", J.Str "analyze");
           ("params", J.Obj [ ("workload", J.Str "gemm") ]);
           ( "qos",
             J.Obj
               [
                 ("deadline_s", J.Float 2.5);
                 ("fuel", J.Int 100);
                 ("degrade", J.Str "off");
               ] );
         ])
  in
  Alcotest.(check bool) "qos deadline parsed" true
    (r.P.qos.P.deadline_s = Some 2.5);
  Alcotest.(check bool) "qos fuel parsed" true (r.P.qos.P.fuel = Some 100);
  Alcotest.(check bool) "qos degrade parsed" true
    (r.P.qos.P.degrade = Engine.Budget.Off);
  let refused doc =
    match P.request_of_json doc with
    | Ok _ -> Alcotest.failf "request %s must be refused" (J.to_string doc)
    | Error _ -> ()
  in
  refused (J.Obj [ ("id", J.Int 1) ]);
  refused (J.Obj [ ("id", J.Int 1); ("op", J.Str "frobnicate") ]);
  refused (J.Obj [ ("id", J.Int 1); ("op", J.Int 3) ]);
  refused (J.Str "not an object");
  refused
    (J.Obj
       [
         ("id", J.Int 1);
         ("op", J.Str "ping");
         ("qos", J.Obj [ ("deadline_s", J.Float (-1.0)) ]);
       ])

let test_response_roundtrip () =
  let ok = { P.rid = J.Int 3; result = Ok (J.Obj [ ("x", J.Int 1) ]) } in
  (match P.response_of_json (P.json_of_response ok) with
  | Ok r ->
    Alcotest.(check string) "ok payload survives" {|{"x":1}|}
      (match r.P.result with
      | Ok p -> J.to_string p
      | Error _ -> "an error")
  | Error m -> Alcotest.failf "ok response refused: %s" m);
  let err =
    {
      P.rid = J.Int 4;
      result =
        Error
          { P.kind = P.Overloaded; message = "queue full"; scope = Some "queue" };
    }
  in
  let doc = P.json_of_response err in
  (* pin the wire shape admission control promises to clients *)
  let e = Option.get (J.member "error" doc) in
  Alcotest.(check string) "kind on the wire" {|"overloaded"|}
    (J.to_string (Option.get (J.member "kind" e)));
  Alcotest.(check string) "scope on the wire" {|"queue"|}
    (J.to_string (Option.get (J.member "scope" e)));
  Alcotest.(check string) "code on the wire is EX_TEMPFAIL" "75"
    (J.to_string (Option.get (J.member "code" e)));
  match P.response_of_json doc with
  | Ok { P.result = Error e; _ } ->
    Alcotest.(check bool) "kind survives" true (e.P.kind = P.Overloaded);
    Alcotest.(check bool) "scope survives" true (e.P.scope = Some "queue");
    Alcotest.(check int) "exit code mapping" 75 (P.exit_code_of_kind e.P.kind)
  | Ok _ -> Alcotest.fail "error response parsed as ok"
  | Error m -> Alcotest.failf "error response refused: %s" m

let test_qos_clamping () =
  let module Ctx = Engine.Ctx in
  Alcotest.(check bool) "no limit passes through" true
    (Ctx.clamp_deadline None = None);
  Alcotest.(check bool) "unlimited request hits the limit" true
    (Ctx.clamp_deadline ~limit:5.0 None = Some 5.0);
  Alcotest.(check bool) "modest request passes" true
    (Ctx.clamp_deadline ~limit:5.0 (Some 2.0) = Some 2.0);
  Alcotest.(check bool) "greedy request is clamped" true
    (Ctx.clamp_deadline ~limit:5.0 (Some 50.0) = Some 5.0);
  Alcotest.(check bool) "fuel: unlimited hits the limit" true
    (Ctx.clamp_fuel ~limit:100 None = Some 100);
  Alcotest.(check bool) "fuel: greedy request is clamped" true
    (Ctx.clamp_fuel ~limit:100 (Some 1000) = Some 100)

let test_handler_enforces_fuel () =
  (* a served request with degrade=off and a starvation fuel budget must
     come back as a structured `exhausted` error, never an exception *)
  let shared = H.create () in
  let r =
    {
      P.id = J.Int 1;
      version = 1;
      op = P.Analyze;
      params =
        J.Obj
          [
            ("workload", J.Str "gemm");
            ("sizes", J.Obj [ ("n", J.Int 16) ]);
          ];
      qos = { P.deadline_s = None; fuel = Some 1; degrade = Engine.Budget.Off };
    }
  in
  match (H.execute shared r).P.result with
  | Error e ->
    Alcotest.(check bool) "kind is exhausted" true (e.P.kind = P.Exhausted);
    Alcotest.(check int) "exit code 4" 4 (P.exit_code_of_kind e.P.kind)
  | Ok _ -> Alcotest.fail "fuel=1 analyze cannot succeed"

let test_handler_server_clamp () =
  (* same request, no client budget at all: the server-side max_fuel
     must clamp it down and trip the same structured error *)
  let shared = H.create ~max_fuel:1 () in
  let r =
    {
      P.id = J.Int 1;
      version = 1;
      op = P.Analyze;
      params =
        J.Obj
          [
            ("workload", J.Str "gemm");
            ("sizes", J.Obj [ ("n", J.Int 16) ]);
          ];
      qos = { P.default_qos with P.degrade = Engine.Budget.Off };
    }
  in
  match (H.execute shared r).P.result with
  | Error e ->
    Alcotest.(check bool) "server max_fuel clamps unlimited clients" true
      (e.P.kind = P.Exhausted)
  | Ok _ -> Alcotest.fail "max_fuel=1 analyze cannot succeed"

let test_handler_hit_does_no_presburger_work () =
  (* a repeat analyze is a store hit looked up before tiling: it must not
     tile, extract a SCoP or warm the chamber memo again *)
  Engine.Faultsim.suspended @@ fun () ->
  let cache =
    Engine.Rcache.create ~dir:(Filename.temp_dir "polyufc_serve_hit" "") ()
  in
  let shared = H.create ~cache () in
  let r =
    {
      P.id = J.Int 1;
      version = 1;
      op = P.Analyze;
      params =
        J.Obj
          [
            ("workload", J.Str "gemm");
            ("sizes", J.Obj [ ("n", J.Int 16) ]);
          ];
      qos = P.default_qos;
    }
  in
  let analyze () =
    match (H.execute shared r).P.result with
    | Ok j -> J.to_string j
    | Error e -> Alcotest.failf "analyze refused: %s" e.P.message
  in
  let fm () = Telemetry.counter_value "presburger.fm_project" in
  Telemetry.reset ();
  Telemetry.enable ();
  let miss = analyze () in
  let after_miss = fm () in
  let hit = analyze () in
  let after_hit = fm () in
  Telemetry.disable ();
  Telemetry.reset ();
  Alcotest.(check bool) "the miss projected" true (after_miss > 0);
  Alcotest.(check int) "the hit projected nothing" after_miss after_hit;
  Alcotest.(check string) "hit = miss" miss hit

(* ---------- a live in-process daemon ---------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "polyufc-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(tweak = fun c -> c) f =
  let path = fresh_socket () in
  if Sys.file_exists path then Sys.remove path;
  let cfg = tweak (S.default_config path) in
  let shared = H.create () in
  match S.create cfg shared with
  | Error m -> Alcotest.failf "server refused to bind: %s" m
  | Ok server ->
    let t = Thread.create (fun () -> S.run server) () in
    Fun.protect
      ~finally:(fun () ->
        S.begin_drain server;
        Thread.join t;
        if Sys.file_exists path then Sys.remove path)
      (fun () -> f server path)

let connect_exn path =
  match C.connect ~retry_for:5.0 path with
  | Ok c -> c
  | Error m -> Alcotest.failf "client cannot connect: %s" m

let analyze_params =
  J.Obj
    [ ("workload", J.Str "gemm"); ("sizes", J.Obj [ ("n", J.Int 8) ]) ]

let test_concurrent_clients_deterministic () =
  with_server @@ fun _server path ->
  let n_clients = 4 and per_client = 3 in
  let results = Array.make (n_clients * per_client) "" in
  let threads =
    List.init n_clients (fun ci ->
        Thread.create
          (fun () ->
            let c = connect_exn path in
            Fun.protect
              ~finally:(fun () -> C.close c)
              (fun () ->
                for i = 0 to per_client - 1 do
                  match C.request c ~op:P.Analyze ~params:analyze_params () with
                  | Ok payload ->
                    results.((ci * per_client) + i) <- J.to_string payload
                  | Error e ->
                    results.((ci * per_client) + i) <-
                      "ERROR: " ^ e.P.message
                done))
          ())
  in
  List.iter Thread.join threads;
  (* the reference: the same request through the handler directly *)
  let reference =
    let shared = H.create () in
    match
      (H.execute shared
         {
           P.id = J.Int 0;
           version = 1;
           op = P.Analyze;
           params = analyze_params;
           qos = P.default_qos;
         })
        .P.result
    with
    | Ok payload -> J.to_string payload
    | Error e -> Alcotest.failf "reference analyze failed: %s" e.P.message
  in
  Array.iteri
    (fun i got ->
      if got <> reference then
        Alcotest.failf "request %d diverged:\n%s\nvs reference\n%s" i got
          reference)
    results

let send_ping c ~id ?(delay = 0.0) () =
  let params =
    if delay > 0.0 then J.Obj [ ("delay_s", J.Float delay) ] else J.Obj []
  in
  match
    C.send c { P.id = J.Int id; version = 1; op = P.Ping; params; qos = P.default_qos }
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send failed: %s" e.P.message

let recv_exn c =
  match C.recv c with
  | Ok r -> r
  | Error e -> Alcotest.failf "recv failed: %s" e.P.message

let expect_rejection ~kind ~scope (r : P.response) =
  match r.P.result with
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "kind is %s" (P.kind_name kind))
      true (e.P.kind = kind);
    Alcotest.(check bool)
      (Printf.sprintf "scope is %s" (Option.value scope ~default:"absent"))
      true (e.P.scope = scope)
  | Ok _ -> Alcotest.fail "expected a rejection, got ok"

let test_overload_queue_rejection () =
  (* queue_depth counts queued + executing, so with depth 1 the second
     pipelined request is rejected no matter how fast the executor
     picked up the first: the shape is deterministic *)
  with_server
    ~tweak:(fun c -> { c with S.workers = 1; queue_depth = 1 })
  @@ fun _server path ->
  let c = connect_exn path in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      send_ping c ~id:1 ~delay:0.4 ();
      send_ping c ~id:2 ();
      (* the rejection is written immediately by the session thread,
         long before the delayed ping answers *)
      let first = recv_exn c in
      Alcotest.(check string) "rejected id" "2" (J.to_string first.P.rid);
      expect_rejection ~kind:P.Overloaded ~scope:(Some "queue") first;
      let second = recv_exn c in
      Alcotest.(check string) "delayed ping id" "1"
        (J.to_string second.P.rid);
      match second.P.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "delayed ping failed: %s" e.P.message)

let test_overload_client_limit () =
  with_server
    ~tweak:(fun c -> { c with S.workers = 1; max_inflight = 1; queue_depth = 100 })
  @@ fun _server path ->
  let c = connect_exn path in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      send_ping c ~id:1 ~delay:0.4 ();
      send_ping c ~id:2 ();
      let first = recv_exn c in
      expect_rejection ~kind:P.Overloaded ~scope:(Some "client") first;
      ignore (recv_exn c))

let test_overload_server_clients () =
  with_server ~tweak:(fun c -> { c with S.max_clients = 1 })
  @@ fun _server path ->
  let a = connect_exn path in
  Fun.protect
    ~finally:(fun () -> C.close a)
    (fun () ->
      (* client A owns the one seat; B is turned away at the door with a
         structured reply, not a slammed connection *)
      (match C.request a ~op:P.Ping ~params:(J.Obj []) () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seated client failed: %s" e.P.message);
      let b = connect_exn path in
      Fun.protect
        ~finally:(fun () -> C.close b)
        (fun () ->
          expect_rejection ~kind:P.Overloaded ~scope:(Some "server")
            (recv_exn b)))

let test_shutdown_op_drains () =
  (* standalone server (not with_server): this test must observe run's
     own return to assert the socket file was removed by the drain *)
  let path = fresh_socket () in
  if Sys.file_exists path then Sys.remove path;
  let server =
    match S.create (S.default_config path) (H.create ()) with
    | Ok s -> s
    | Error m -> Alcotest.failf "server refused to bind: %s" m
  in
  let t = Thread.create (fun () -> S.run server) () in
  let c = connect_exn path in
  Fun.protect
    ~finally:(fun () ->
      C.close c;
      S.begin_drain server;
      Thread.join t;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* a request in flight keeps the drain from completing until it
         is answered: shutdown must ack, then reject, then answer *)
      send_ping c ~id:1 ~delay:0.3 ();
      send_ping c ~id:2 ();
      (* id 2 admitted normally; its answer order vs the ack is not
         pinned, only the post-drain rejection below is *)
      let _ack_or_pong = recv_exn c in
      C.send c
        { P.id = J.Int 3; version = 1; op = P.Shutdown; params = J.Obj []; qos = P.default_qos }
      |> Result.iter_error (fun e ->
             Alcotest.failf "shutdown send failed: %s" e.P.message);
      send_ping c ~id:4 ();
      (* drain the remaining responses; exactly one must be the
         shutting_down rejection of id 4 *)
      let rejected = ref false and answered = ref 0 in
      while !answered + (if !rejected then 1 else 0) < 3 do
        let r = recv_exn c in
        match r.P.result with
        | Error e when e.P.kind = P.Shutting_down ->
          Alcotest.(check string) "rejected id" "4" (J.to_string r.P.rid);
          rejected := true
        | Error e -> Alcotest.failf "unexpected error: %s" e.P.message
        | Ok _ -> incr answered
      done;
      Alcotest.(check bool) "post-drain request was rejected" true !rejected;
      Alcotest.(check bool) "server reports draining" true
        (S.draining server));
  Thread.join t;
  Alcotest.(check bool) "socket removed after drain" false
    (Sys.file_exists path)

let test_chaos_serve_io_survival () =
  with_server @@ fun _server path ->
  let plan =
    match FS.parse_plan "serve.io:0.3:11" with
    | Ok p -> p
    | Error m -> Alcotest.failf "plan refused: %s" m
  in
  FS.with_plan plan (fun () ->
      (* torn reads and writes on both sides of the wire: requests may
         fail with transport errors, the daemon must not die *)
      for _ = 1 to 15 do
        match C.connect ~retry_for:1.0 path with
        | Error _ -> ()
        | Ok c ->
          (match C.request c ~op:P.Ping ~params:(J.Obj []) () with
          | Ok _ | Error _ -> ());
          C.close c
      done);
  (* injection disarmed: the daemon must serve cleanly again *)
  let c = connect_exn path in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      match C.request c ~op:P.Ping ~params:(J.Obj []) () with
      | Ok payload ->
        Alcotest.(check bool) "pong after the storm" true
          (J.member "pong" payload = Some (J.Bool true))
      | Error e -> Alcotest.failf "daemon did not survive chaos: %s" e.P.message)

let test_protocol_versioning () =
  (* absent version field means v1 — the pre-versioning wire format *)
  let parse doc =
    match P.request_of_json doc with
    | Ok r -> r
    | Error m -> Alcotest.failf "request refused: %s" m
  in
  let r = parse (J.Obj [ ("id", J.Int 1); ("op", J.Str "ping") ]) in
  Alcotest.(check int) "absent version means v1" 1 r.P.version;
  let r =
    parse
      (J.Obj [ ("id", J.Int 1); ("version", J.Int 2); ("op", J.Str "ping") ])
  in
  Alcotest.(check int) "explicit v2 parses" 2 r.P.version;
  let refused doc =
    match P.request_of_json doc with
    | Ok _ -> Alcotest.failf "request %s must be refused" (J.to_string doc)
    | Error _ -> ()
  in
  refused (J.Obj [ ("id", J.Int 1); ("version", J.Int 0); ("op", J.Str "ping") ]);
  refused (J.Obj [ ("id", J.Int 1); ("version", J.Int 3); ("op", J.Str "ping") ]);
  refused
    (J.Obj [ ("id", J.Int 1); ("version", J.Str "2"); ("op", J.Str "ping") ]);
  (* analyze_multi exists on the wire, and only at v2 *)
  let r =
    parse
      (J.Obj
         [
           ("id", J.Int 1); ("version", J.Int 2); ("op", J.Str "analyze_multi");
         ])
  in
  Alcotest.(check bool) "analyze_multi parses" true (r.P.op = P.Analyze_multi);
  Alcotest.(check int) "analyze_multi needs v2" 2 (P.op_min_version P.Analyze_multi);
  Alcotest.(check int) "analyze stays v1" 1 (P.op_min_version P.Analyze);
  Alcotest.(check bool) "capability list advertises analyze_multi" true
    (List.mem "analyze_multi" P.capabilities)

let test_v1_wire_byte_identity () =
  (* a v1 request serialized by the new code must not grow a version
     field: old daemons reject unknown shapes byte-for-byte *)
  let req version =
    {
      P.id = J.Int 9;
      version;
      op = P.Ping;
      params = J.Obj [];
      qos = P.default_qos;
    }
  in
  let v1 = J.to_string (P.json_of_request (req 1)) in
  Alcotest.(check string) "v1 wire format unchanged"
    {|{"id":9,"op":"ping","params":{},"qos":{"degrade":"interp"}}|} v1;
  let v2 = J.to_string (P.json_of_request (req 2)) in
  Alcotest.(check string) "v2 carries the version field"
    {|{"id":9,"version":2,"op":"ping","params":{},"qos":{"degrade":"interp"}}|}
    v2;
  (* and both round-trip through the parser *)
  (match P.request_of_json (P.json_of_request (req 1)) with
  | Ok r -> Alcotest.(check int) "v1 round-trips" 1 r.P.version
  | Error m -> Alcotest.failf "v1 round-trip refused: %s" m);
  match P.request_of_json (P.json_of_request (req 2)) with
  | Ok r -> Alcotest.(check int) "v2 round-trips" 2 r.P.version
  | Error m -> Alcotest.failf "v2 round-trip refused: %s" m

let test_ping_capability_report () =
  let shared = H.create () in
  let ping version =
    let r =
      {
        P.id = J.Int 1;
        version;
        op = P.Ping;
        params = J.Obj [];
        qos = P.default_qos;
      }
    in
    match (H.execute shared r).P.result with
    | Ok payload -> payload
    | Error e -> Alcotest.failf "ping refused: %s" e.P.message
  in
  let p1 = ping 1 in
  Alcotest.(check bool) "v1 pong" true (J.member "pong" p1 = Some (J.Bool true));
  Alcotest.(check bool) "v1 echoes protocol 1" true
    (J.member "protocol" p1 = Some (J.Int 1));
  Alcotest.(check bool) "v1 ping has no capabilities (byte identity)" true
    (J.member "capabilities" p1 = None);
  let p2 = ping 2 in
  Alcotest.(check bool) "v2 echoes protocol 2" true
    (J.member "protocol" p2 = Some (J.Int 2));
  Alcotest.(check bool) "v2 reports max_protocol" true
    (J.member "max_protocol" p2 = Some (J.Int P.protocol_version));
  match J.member "capabilities" p2 with
  | Some (J.Arr caps) ->
    Alcotest.(check bool) "capabilities include analyze_multi" true
      (List.mem (J.Str "analyze_multi") caps)
  | _ -> Alcotest.fail "v2 ping must carry a capability array"

let test_versioned_op_gating () =
  (* a v1 client naming the v2-only op gets a structured Bad_request
     telling it which version to speak, not a crash or a silent run *)
  let shared = H.create () in
  let r =
    {
      P.id = J.Int 1;
      version = 1;
      op = P.Analyze_multi;
      params = J.Obj [ ("tenants", J.Arr []) ];
      qos = P.default_qos;
    }
  in
  match (H.execute shared r).P.result with
  | Error e ->
    Alcotest.(check bool) "kind is bad_request" true (e.P.kind = P.Bad_request);
    Alcotest.(check bool) "message names the version requirement" true
      (let m = e.P.message in
       let has sub =
         let ls = String.length sub and lm = String.length m in
         let rec go i = i + ls <= lm && (String.sub m i ls = sub || go (i + 1)) in
         go 0
       in
       has "version" && has "analyze_multi")
  | Ok _ -> Alcotest.fail "v1 analyze_multi must be refused"

let test_analyze_multi_served () =
  (* end-to-end over a real socket: two tenants through the daemon *)
  with_server @@ fun _server path ->
  let c = connect_exn path in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      let tenants =
        J.Arr
          [
            J.Obj
              [
                ("workload", J.Str "gemm");
                ("name", J.Str "gemm");
                ("sizes", J.Obj [ ("n", J.Int 24) ]);
              ];
            J.Obj
              [
                ("workload", J.Str "mvt");
                ("name", J.Str "mvt");
                ("sizes", J.Obj [ ("n", J.Int 96) ]);
                ("weight", J.Float 2.0);
              ];
          ]
      in
      let params = J.Obj [ ("tenants", tenants); ("solo", J.Bool false) ] in
      match C.request c ~version:2 ~op:P.Analyze_multi ~params () with
      | Error e -> Alcotest.failf "analyze_multi refused: %s" e.P.message
      | Ok payload ->
        let arbiter = Option.get (J.member "arbiter" payload) in
        (match J.member "cap_ghz" arbiter with
        | Some (J.Float f) ->
          Alcotest.(check bool) "arbitrated cap within machine range" true
            (f >= 1.2 && f <= 2.8)
        | _ -> Alcotest.fail "arbiter decision must carry cap_ghz");
        (match J.member "tenants" payload with
        | Some (J.Arr ts) ->
          Alcotest.(check int) "both tenants reported" 2 (List.length ts)
        | _ -> Alcotest.fail "per-tenant reports missing");
        (* the scatter rows land in v2 stats *)
        (match C.request c ~version:2 ~op:P.Stats ~params:(J.Obj []) () with
        | Error e -> Alcotest.failf "stats refused: %s" e.P.message
        | Ok stats -> (
          match J.member "scatter" stats with
          | Some (J.Arr rows) ->
            Alcotest.(check bool) "scatter populated" true
              (List.length rows >= 2)
          | _ -> Alcotest.fail "v2 stats must carry scatter"));
        (* v1 stats stay scatter-free: byte identity for old clients *)
        match C.request c ~op:P.Stats ~params:(J.Obj []) () with
        | Error e -> Alcotest.failf "v1 stats refused: %s" e.P.message
        | Ok stats ->
          Alcotest.(check bool) "v1 stats unchanged" true
            (J.member "scatter" stats = None))

let tests =
  [
    Alcotest.test_case "frames round-trip byte-for-byte" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "clean EOF and torn frames are structured" `Quick
      test_frame_eof_and_truncated;
    Alcotest.test_case "oversized frames are skipped, stream resyncs" `Quick
      test_frame_oversized_resyncs;
    Alcotest.test_case "hostile lengths and bad JSON never crash" `Quick
      test_frame_corrupt_and_bad_json;
    Alcotest.test_case "requests parse, malformed ones are refused" `Quick
      test_request_parsing;
    Alcotest.test_case "responses round-trip, rejection shape pinned" `Quick
      test_response_roundtrip;
    Alcotest.test_case "QoS clamping bounds client budgets" `Quick
      test_qos_clamping;
    Alcotest.test_case "client fuel budget trips a structured error" `Quick
      test_handler_enforces_fuel;
    Alcotest.test_case "server maxima clamp unlimited clients" `Quick
      test_handler_server_clamp;
    Alcotest.test_case "a store hit does no Presburger work" `Quick
      test_handler_hit_does_no_presburger_work;
    Alcotest.test_case "concurrent clients get identical bytes" `Quick
      test_concurrent_clients_deterministic;
    Alcotest.test_case "queue admission rejects deterministically" `Quick
      test_overload_queue_rejection;
    Alcotest.test_case "per-client inflight limit is enforced" `Quick
      test_overload_client_limit;
    Alcotest.test_case "client cap rejects at the door" `Quick
      test_overload_server_clients;
    Alcotest.test_case "shutdown op drains gracefully" `Quick
      test_shutdown_op_drains;
    Alcotest.test_case "daemon survives serve.io chaos" `Quick
      test_chaos_serve_io_survival;
    Alcotest.test_case "protocol versioning parses and gates" `Quick
      test_protocol_versioning;
    Alcotest.test_case "v1 wire format is byte-identical" `Quick
      test_v1_wire_byte_identity;
    Alcotest.test_case "ping reports capabilities at v2" `Quick
      test_ping_capability_report;
    Alcotest.test_case "versioned ops gate on request version" `Quick
      test_versioned_op_gating;
    Alcotest.test_case "analyze_multi served end-to-end" `Quick
      test_analyze_multi_served;
  ]
