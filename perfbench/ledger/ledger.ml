(* Load generator and traced pass of the perfbench benchmark.

   This is the benchmark's only client of a [polyufc serve] daemon: every
   request a run sends goes through [Serve.Client.request], one closed-loop
   connection at a time.  perfbench/run.py starts and stops the daemons,
   times set-up, reads /proc and checks the payloads this program writes.

     ledger send --socket S --requests F --out P
       Send F's requests (JSON lines) in order and write each payload,
       one line each.  Any error fails the command.
     ledger replay --socket S --tape T --out R --payloads P
       The untraced pass: the tape and nothing else.  R holds the wall
       time of every op and of the whole tape; P one line per op, the
       payload or "!" and the error message.
     ledger trace --socket S --tape T --warmup F --probe-exec D
                  --probe-replay D --spans F --out R ...
       The traced pass.  Every op's round trip is timed; after each
       analyze op at every [probe_every]-th tape position a probe calls
       the layers' public functions in the order the program calls them,
       each call wrapped in a span recorded here, outside the program.  The probe
       runs [Serve.Handler.execute] in-process on a copy of the daemon's
       store (the round trip minus it is transport), then replays the
       handler's analyze pipeline call by call on a second copy.  With
       --cli-exe it then runs [polyufc run --json] processes on a filled
       store and replays the run pipeline in-process.  Spans stay in
       memory and are written once, at exit.

   Every probe result is compared with what the program returned for the
   same op, so the traced pass also checks served-vs-in-process
   identity. *)

module J = Telemetry.Json
open Polyufc_core

let now = Unix.gettimeofday
let probe_every = 4

(* --- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;
  name : string;
  start : float;
  dur : float;
}

let recorded = ref []
let next_id = ref 0
let open_stack = ref []
let current_op = ref 0

let push_span ~parent name start dur =
  incr next_id;
  recorded :=
    { id = !next_id; parent; op = !current_op; name; start; dur } :: !recorded

let span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !open_stack with p :: _ -> p | [] -> 0 in
  open_stack := id :: !open_stack;
  let start = now () in
  let finish () =
    open_stack := List.tl !open_stack;
    recorded :=
      { id; parent; op = !current_op; name; start; dur = now () -. start }
      :: !recorded
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let last_dur () = (List.hd !recorded).dur

(* a child of the innermost open span whose duration was measured by the
   program itself (the [Flow.timing] phases) *)
let child_of_open name dur =
  match !open_stack with
  | parent :: _ -> push_span ~parent name (now ()) dur
  | [] -> ()

let write_spans path =
  let json_of s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("parent", J.Int s.parent);
        ("op", J.Int s.op);
        ("name", J.Str s.name);
        ("start_us", J.Float (s.start *. 1e6));
        ("dur_us", J.Float (s.dur *. 1e6));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string (J.Arr (List.rev_map json_of !recorded)));
      output_char oc '\n')

(* --- per-op ledger ----------------------------------------------------- *)

(* Self time of every span name in one op, summed over its occurrences:
   duration minus the part its children cover. *)
let self_times spans =
  let child_sum = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v = s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id) in
      Hashtbl.replace self s.name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    spans;
  self

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let per_layer : (string * float list) list ref = ref []  (* per-op self ms *)
let extra : (string * float) list ref = ref []  (* finished metrics *)

let add_layer name ms =
  let prev = Option.value ~default:[] (List.assoc_opt name !per_layer) in
  per_layer := (name, ms :: prev) :: List.remove_assoc name !per_layer

let set_metric name v = extra := (name, v) :: List.remove_assoc name !extra

(* Close one op and return its unattributed ms: [latency] is what the
   user saw; [synthetic] are layer times derived from measurements rather
   than spans (transport, process start).  Root spans other than [op] and
   [skip] are the layers that add up to the op. *)
let settle_op ~latency ?(skip = []) synthetic =
  let op = !current_op in
  (* newest first: the op's spans are the head of the list *)
  let rec of_op acc = function
    | s :: tl when s.op = op -> of_op (s :: acc) tl
    | _ -> acc
  in
  let spans = of_op [] !recorded in
  let counted name = name <> "op" && not (List.mem name skip) in
  Hashtbl.iter
    (fun name s -> if counted name then add_layer name (s *. 1e3))
    (self_times spans);
  List.iter (fun (name, ms) -> add_layer name ms) synthetic;
  let roots =
    List.fold_left
      (fun acc s -> if s.parent = 0 && counted s.name then acc +. s.dur else acc)
      0.0 spans
  in
  let synthetic_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 synthetic in
  (latency *. 1e3) -. synthetic_ms -. (roots *. 1e3)

(* --- inputs and outputs ------------------------------------------------ *)

let read_jsonl path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.of_string l with
         | Ok j -> j
         | Error m -> failwith (Printf.sprintf "%s: %s" path m))

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let write_json path doc = write_lines path [ J.to_string doc ]
let floats xs = J.Arr (List.map (fun x -> J.Float x) xs)

let str key j =
  match J.member key j with
  | Some (J.Str s) -> s
  | _ -> failwith ("missing string field " ^ key)

let sizes_of j =
  match J.member "sizes" j with
  | Some (J.Obj kvs) ->
    List.map
      (function
        | p, J.Int n -> (p, n) | p, _ -> failwith ("non-integer size " ^ p))
      kvs
  | _ -> []

let machine = Hwsim.Machine.bdw
let mode = Cache_model.Model.Set_associative
let tile_size = 32

let load params =
  let w = Workloads.find (str "workload" params) in
  let sizes = sizes_of params in
  (Workloads.program w, if sizes = [] then Workloads.param_values w else sizes)

let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt name before) in
      if d <> 0 then Some (name, d) else None)
    after

let count deltas name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name deltas))

let failures = ref 0
let attempted = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "ledger: mismatch: %s\n%!" what
  end

(* --- the client -------------------------------------------------------- *)

let request_of i line =
  let fields = match line with J.Obj f -> f | _ -> failwith "tape line" in
  match Serve.Protocol.request_of_json (J.Obj (("id", J.Int i) :: fields)) with
  | Ok r -> r
  | Error m -> failwith m

let requests path = List.mapi (fun i l -> request_of (i + 1) l) (read_jsonl path)

let connect path =
  match Serve.Client.connect ~retry_for:20.0 path with
  | Ok c -> c
  | Error m -> failwith m

let call c (r : Serve.Protocol.request) =
  Serve.Client.request c ~op:r.op ~params:r.params ()

let send ~socket ~reqs ~out =
  let c = connect socket in
  let payloads =
    List.map
      (fun r ->
        match call c r with
        | Ok p -> J.to_string p
        | Error e -> failwith ("request failed: " ^ e.Serve.Protocol.message))
      (requests reqs)
  in
  Serve.Client.close c;
  write_lines out payloads

let replay ~socket ~tape ~out ~payloads =
  let reqs = requests tape in
  let c = connect socket in
  let t_first = now () in
  let timed =
    List.map
      (fun r ->
        let t0 = now () in
        let res = call c r in
        let dt = now () -. t0 in
        ( dt *. 1e3,
          match res with
          | Ok p -> J.to_string p
          | Error e ->
            "!" ^ String.map (function '\n' -> ' ' | ch -> ch) e.Serve.Protocol.message ))
      reqs
  in
  let wall = now () -. t_first in
  Serve.Client.close c;
  write_json out
    (J.Obj [ ("wall_s", J.Float wall); ("latency_ms", floats (List.map fst timed)) ]);
  write_lines payloads (List.map snd timed)

(* --- traced pass: serve ------------------------------------------------ *)

let daemon_counters c =
  match Serve.Client.request c ~op:Serve.Protocol.Stats ~params:(J.Obj []) () with
  | Ok doc -> (
    match J.member "counters" doc with
    | Some (J.Obj kvs) ->
      List.filter_map
        (function name, J.Int n -> Some (name, n) | _ -> None)
        kvs
    | _ -> [])
  | Error e -> failwith e.Serve.Protocol.message

(* The work counters of the daemon over the traced tape, plus the result
   store's hit ratio. *)
let set_counters deltas =
  List.iter
    (fun name -> set_metric name (count deltas name))
    [
      "engine.cache.mem.hit"; "engine.cache.disk.hit"; "engine.cache.miss";
      "engine.cache.store"; "engine.cache.eviction"; "engine.cache.gc_runs";
      "cache_model.accesses"; "presburger.points_scanned";
      "presburger.fm_project"; "presburger.chamber_cache_hits";
      "hwsim.runs"; "hwsim.dram_lines";
    ];
  let hits = count deltas "engine.cache.hit"
  and misses = count deltas "engine.cache.miss" in
  if hits +. misses > 0.0 then
    set_metric "engine.rcache.hit_ratio" (hits /. (hits +. misses))

(* The handler's analyze, one public call per span. *)
let replay_analyze ~cache params =
  let ctx = Engine.Ctx.create ~cache () in
  let prog, sizes = span "workloads.program" (fun () -> load params) in
  let tiled =
    span "poly_ir.tile" (fun () -> Poly_ir.Tiling.tile_program ~tile_size prog)
  in
  let warm () =
    try
      let scop = span "poly_ir.scop_extract" (fun () -> Poly_ir.Scop.extract tiled) in
      span "presburger.card_param" (fun () ->
          List.iter
            (fun (info : Poly_ir.Scop.stmt_info) ->
              ignore (Presburger.Count.card_param ~ctx info.Poly_ir.Scop.domain))
            scop.Poly_ir.Scop.stmt_infos)
    with Engine.Budget.Exhausted _ | Invalid_argument _ -> ()
  in
  warm ();
  let cm =
    span "core.analyze_gov" (fun () ->
        let key =
          span "core.cm_key" (fun () ->
              Analysis_cache.cm_key ~machine ~mode ~apply_thread_heuristic:false
                ~param_values:sizes tiled)
        in
        let hit =
          match span "engine.rcache.find" (fun () -> Engine.Rcache.find cache key) with
          | None -> None
          | Some j ->
            span "core.cm_decode" (fun () -> Analysis_cache.cm_of_json ~machine ~mode j)
        in
        match hit with
        | Some r -> r
        | None ->
          warm ();
          let r =
            span "cache_model.analyze" (fun () ->
                Cache_model.Model.analyze ~ctx ~mode ~apply_thread_heuristic:false
                  ~machine tiled ~param_values:sizes)
          in
          if r.Cache_model.Model.fidelity = Engine.Fidelity.Exact then begin
            let j = span "core.cm_encode" (fun () -> Analysis_cache.cm_to_json r) in
            span "engine.rcache.store" (fun () -> Engine.Rcache.store cache key j)
          end;
          r)
  in
  span "report.encode" (fun () -> J.to_string (Report.json_of_cm cm))

let open_store ?max_bytes dir = Engine.Rcache.create ~dir ?max_bytes ()

(* Returns the traced round-trip ms of every op and (latency ms,
   unattributed ms) of every probed op. *)
let trace_serve ~socket ~tape ~warmup ~probe_exec ~probe_replay ~max_bytes =
  let reqs = requests tape in
  (* probe state: the copies start as the daemon's store did; warm their
     memory tiers and the process-wide chamber memo the way the daemon's
     set-up warmed its own *)
  let exec_cache = open_store ?max_bytes probe_exec in
  let replay_cache = open_store ?max_bytes probe_replay in
  let shared = Serve.Handler.create ~cache:exec_cache () in
  List.iteri
    (fun i l ->
      let r = request_of (-(i + 1)) l in
      ignore (Serve.Handler.execute shared r);
      ignore (replay_analyze ~cache:replay_cache r.params))
    (read_jsonl warmup);
  let c = connect socket in
  let pings =
    List.init 50 (fun _ ->
        let t0 = now () in
        ignore (Serve.Client.request c ~op:Serve.Protocol.Ping ~params:(J.Obj []) ());
        (now () -. t0) *. 1e3)
  in
  set_metric "serve.ping_rtt_ms" (median pings);
  let before = daemon_counters c in
  let stats_ms = ref [] and traced_ms = ref [] and probed = ref [] in
  List.iteri
    (fun i (r : Serve.Protocol.request) ->
      current_op := i + 1;
      let served = span "op" (fun () -> call c r) in
      let rt = last_dur () in
      traced_ms := (rt *. 1e3) :: !traced_ms;
      incr attempted;
      match served with
      | Error e -> check ("traced response: " ^ e.Serve.Protocol.message) false
      | Ok _ when r.op <> Serve.Protocol.Analyze -> stats_ms := (rt *. 1e3) :: !stats_ms
      | Ok _ when i mod probe_every <> 0 -> ()
      | Ok payload ->
        let inproc =
          span "serve.handler.execute" (fun () -> Serve.Handler.execute shared r)
        in
        let exec = last_dur () in
        let replayed = replay_analyze ~cache:replay_cache r.params in
        let served = J.to_string payload in
        check "served vs in-process execute"
          (match inproc.Serve.Protocol.result with
          | Ok p -> J.to_string p = served
          | Error _ -> false);
        check "served vs layer replay" (replayed = served);
        let un =
          settle_op ~latency:rt ~skip:[ "serve.handler.execute" ]
            [ ("serve.transport", (rt -. exec) *. 1e3) ]
        in
        probed := (rt *. 1e3, un) :: !probed)
    reqs;
  let after = daemon_counters c in
  Serve.Client.close c;
  set_metric "telemetry.stats_ms" (median !stats_ms);
  set_counters (counter_deltas before after);
  (List.rev !traced_ms, !probed)

(* --- traced pass: polyufc run processes -------------------------------- *)

let run_process argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process argv.(0) argv devnull out_w devnull in
  Unix.close out_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status = Unix.WEXITED 0, out)

(* a run document minus the compile-phase wall times, which differ
   between any two runs *)
let without_timing = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (function
           | "compile", J.Obj c -> ("compile", J.Obj (List.remove_assoc "timing" c))
           | kv -> kv)
         fields)
  | doc -> doc

(* Each op is a [polyufc run --json] process on [store], then the run
   pipeline replayed in-process on the same store.  Sets the roofline,
   hwsim, flow and cli metrics. *)
let trace_cli ~exe ~store ~ops ~first_op =
  let process_ms =
    median
      (List.init 7 (fun _ ->
           let t0 = now () in
           let ok, _ = run_process [| exe; "--version" |] in
           check "no-op process" ok;
           (now () -. t0) *. 1e3))
  in
  set_metric "cli.process_ms" process_ms;
  let accesses = ref 0 and eval_s = ref 0.0 in
  let wall_ms = ref [] and unattributed = ref [] in
  let before = Telemetry.counters_snapshot () in
  List.iteri
    (fun i params ->
      current_op := first_op + i;
      let argv =
        [| exe; "run"; "--json"; "-w"; str "workload" params;
           "-s"; Printf.sprintf "n=%d" (List.assoc "n" (sizes_of params));
           "--cache-dir=" ^ store |]
      in
      let ok, out = span "op" (fun () -> run_process argv) in
      let wall = last_dur () in
      wall_ms := (wall *. 1e3) :: !wall_ms;
      incr attempted;
      check "run process exit status" ok;
      let cache =
        span "engine.rcache.open" (fun () ->
            let c = open_store store in
            ignore (Engine.Rcache.migrate c);
            c)
      in
      let prog, sizes = span "workloads.program" (fun () -> load params) in
      let rooflines =
        span "roofline.microbench" (fun () -> Roofline.microbench machine)
      in
      let c =
        span "core.flow_compile" (fun () ->
            let c =
              Flow.compile ~ctx:(Engine.Ctx.create ~cache ()) ~objective:Search.Edp
                ~epsilon:1e-3 ~tile_size ~machine ~rooflines prog ~param_values:sizes
            in
            let t = c.Flow.timing in
            child_of_open "core.flow.preprocess" t.Flow.preprocess_s;
            child_of_open "core.flow.pluto" t.Flow.pluto_s;
            child_of_open "core.flow.cm" t.Flow.cm_s;
            child_of_open "core.flow.steps456" t.Flow.steps456_s;
            c)
      in
      let sim_before = Telemetry.counters_snapshot () in
      let e =
        span "hwsim.evaluate" (fun () -> Flow.evaluate ~machine c ~param_values:sizes)
      in
      eval_s := !eval_s +. last_dur ();
      List.iter
        (fun (name, n) ->
          if String.starts_with ~prefix:"hwsim.l1_" name then accesses := !accesses + n)
        (counter_deltas sim_before (Telemetry.counters_snapshot ()));
      let replayed = span "report.encode" (fun () -> Report.json_of_run c e) in
      check "run stdout vs layer replay"
        (match J.of_string out with
        | Ok doc ->
          J.to_string (without_timing doc) = J.to_string (without_timing replayed)
        | Error _ -> false);
      check "run fidelity exact" (c.Flow.fidelity = Engine.Fidelity.Exact);
      unattributed :=
        settle_op ~latency:wall [ ("cli.process", process_ms) ] :: !unattributed)
    ops;
  let deltas = counter_deltas before (Telemetry.counters_snapshot ()) in
  set_metric "hwsim.runs" (count deltas "hwsim.runs");
  set_metric "hwsim.dram_lines" (count deltas "hwsim.dram_lines");
  if !eval_s > 0.0 then
    set_metric "hwsim.accesses_per_host_s" (float_of_int !accesses /. !eval_s);
  set_metric "cli.run_ms" (median !wall_ms);
  set_metric "cli.unattributed_ms" (median !unattributed)

let trace ~socket ~tape ~warmup ~probe_exec ~probe_replay ~max_bytes ~cli ~spans_out ~out
    =
  Telemetry.reset ();
  Telemetry.enable ();
  let traced_ms, probed =
    trace_serve ~socket ~tape ~warmup ~probe_exec ~probe_replay ~max_bytes
  in
  let tape_metrics =
    [
      ("unattributed_ms", median (List.map snd probed));
      ("unattributed_share", median (List.map (fun (lat, un) -> un /. lat) probed));
      ("trace.traced_p50_ms", median traced_ms);
    ]
  in
  (match cli with
  | Some (exe, store, ops) ->
    trace_cli ~exe ~store ~ops:(read_jsonl ops) ~first_op:(List.length traced_ms + 1)
  | None -> ());
  Telemetry.disable ();
  let layers = List.map (fun (name, xs) -> (name ^ "_ms", median xs)) !per_layer in
  write_spans spans_out;
  write_json out
    (J.Obj
       [
         ("attempted", J.Int !attempted);
         ("failed", J.Int !failures);
         ("probed_ops", J.Int (List.length probed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (k, v) -> (k, J.Float v))
                (layers @ List.rev !extra @ tape_metrics)) );
       ])

(* --- main -------------------------------------------------------------- *)

let () =
  let socket = ref "" and tape = ref "" and reqs = ref "" and warmup = ref "" in
  let probe_exec = ref "" and probe_replay = ref "" and max_bytes = ref 0 in
  let cli_exe = ref "" and cli_store = ref "" and cli_ops = ref "" in
  let spans_out = ref "" and out = ref "" and payloads = ref "" in
  let mode = ref "" in
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH  the daemon's socket");
      ("--requests", Arg.Set_string reqs, "FILE  send: JSON lines, one request each");
      ("--tape", Arg.Set_string tape, "FILE  replay, trace: JSON lines, one op each");
      ("--payloads", Arg.Set_string payloads, "FILE  replay: one payload line per op");
      ("--warmup", Arg.Set_string warmup, "FILE  trace: the daemon's set-up requests");
      ("--probe-exec", Arg.Set_string probe_exec, "DIR  trace: store copy, execute");
      ("--probe-replay", Arg.Set_string probe_replay, "DIR  trace: store copy, replay");
      ("--cache-max-bytes", Arg.Set_int max_bytes, "N  trace: the watermark (0: none)");
      ("--cli-exe", Arg.Set_string cli_exe, "PATH  trace: polyufc, to run processes");
      ("--cli-store", Arg.Set_string cli_store, "DIR  trace: the processes' store");
      ("--cli-ops", Arg.Set_string cli_ops, "FILE  trace: run params, one per process");
      ("--spans", Arg.Set_string spans_out, "FILE  trace: spans, written at exit");
      ("--out", Arg.Set_string out, "FILE  payloads (send) or results");
    ]
    (fun a -> if !mode = "" then mode := a else raise (Arg.Bad a))
    "ledger send|replay|trace --socket PATH ... --out FILE";
  match !mode with
  | "send" -> send ~socket:!socket ~reqs:!reqs ~out:!out
  | "replay" -> replay ~socket:!socket ~tape:!tape ~out:!out ~payloads:!payloads
  | "trace" ->
    let max_bytes = if !max_bytes > 0 then Some !max_bytes else None in
    let cli = if !cli_exe = "" then None else Some (!cli_exe, !cli_store, !cli_ops) in
    trace ~socket:!socket ~tape:!tape ~warmup:!warmup ~probe_exec:!probe_exec
      ~probe_replay:!probe_replay ~max_bytes ~cli ~spans_out:!spans_out ~out:!out
  | m -> failwith ("unknown mode " ^ m)
