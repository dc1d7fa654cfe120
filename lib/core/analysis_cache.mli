(** Content-addressed persistence of PolyUFC-CM analyses.

    The cache key is a stable digest of everything the analysis depends
    on: a canonical rendering of every field of the {e untiled} program
    ({!Poly_ir.Ir.fingerprint}), the tile size ([none] when the program
    is analyzed as given), a full fingerprint of the machine description,
    the model parameters (associativity mode, thread heuristic, parameter
    bindings), and {!Engine.Rcache.schema_version}.  The store is
    consulted before tiling, so a hit never runs the tiler; the tiler's
    output is therefore not part of the key, and any change to it must
    bump {!Engine.Rcache.schema_version} (the tiler golden test in
    [test/test_workloads.ml] fails until it does).

    Payloads round-trip {!Cache_model.Model.result} through JSON with
    lossless hexadecimal float encoding, so a cache hit reproduces the
    analysis bit-for-bit and downstream reports stay byte-identical. *)

val machine_fingerprint : Hwsim.Machine.t -> string
(** Every field of the machine description, canonically rendered; any
    retuning (e.g. {!Hwsim.Machine.with_core_ghz}) changes the key. *)

val cm_key :
  ?tile_size:int ->
  machine:Hwsim.Machine.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  param_values:(string * int) list ->
  Poly_ir.Ir.t ->
  string
(** The store key of the analysis of the program tiled with [tile_size]
    (analyzed as given when [tile_size] is absent). *)

val cm_to_json : Cache_model.Model.result -> Telemetry.Json.t

val cm_of_json :
  machine:Hwsim.Machine.t ->
  mode:Cache_model.Model.assoc_mode ->
  Telemetry.Json.t ->
  Cache_model.Model.result option
(** [None] when the payload does not have the expected shape (treated by
    {!Engine.Rcache.find_or_add} as a corrupt entry). *)

val analyze_gov :
  ?ctx:Engine.Ctx.t ->
  ?tile_size:int ->
  ?tiled:Poly_ir.Ir.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  Cache_model.Model.result
(** The PolyUFC-CM analysis of the program tiled with [tile_size]
    ({!Poly_ir.Tiling.tile_program}; the program as given when
    [tile_size] is absent), through [ctx]: the one entry point of the
    [analyze], [search] and [run] operations, so an entry stored by any
    of them serves the others.

    With a cache in [ctx] the store is looked up {e before} tiling, and
    the program is tiled only on a miss.  [tiled], when given, must be
    that tiled program: a caller that needs it anyway passes it in, so a
    miss does not tile twice.  A miss warms
    the chamber memo over the analyzed program's statement domains, then
    runs the budget-metered {!Cache_model.Model.analyze_gov}.  Degraded
    results are returned but never stored — a future run with a
    healthier budget must be able to compute (and then cache) the exact
    analysis. *)
