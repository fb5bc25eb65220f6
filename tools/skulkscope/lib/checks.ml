(* Pass B, one site at a time: the rules that need only a use's resolved
   path and type, and (for the module-level rules) the pass-A tables of
   module-level mutable and RNG-typed values.

   Paths resolve through Summary.key_of, so [module R = Random] and
   [open Unix] do not hide a use, and a unit's own [compare] is its own
   key rather than [Stdlib.compare]. Known holes (DESIGN.md §9): float
   equality is recognised only where the argument's type is spelled
   [float] (an abbreviation of it is not expanded); functor-built
   Hashtbl instances ([Hashtbl.Make]) are not traversal heads. *)

type ctxt = {
  t : Summary.tables;
  u : Summary.unit_info;
  findings : Report.finding list ref;
  (* heads of Hashtbl.fold applications whose result goes straight into
     a sort *)
  mutable sanctioned : Location.t list;
  (* idents bound anywhere in the current top-level structure item *)
  mutable item_bound : Ident.t list;
}

let emit c name loc fmt = Rules.emit c.findings (Rules.get name) ~file:c.u.u_path loc fmt
let head_key c e = Summary.head_key c.t c.u e

(* ---- uses of a path ---- *)

let check_ident c (e : Typedtree.expression) p =
  match Summary.key_of c.t c.u p with
  | None -> ()
  | Some key -> (
    let name = Classify.key_to_string key in
    if Classify.in_module "Random" key then
      emit c "random-global" e.exp_loc
        "%s is process-global and not seeded per trial; draw from Sim.Rng instead" name
    else if Classify.is_wall_clock key then
      emit c "wall-clock" e.exp_loc
        "%s reads the host clock; use sim time (Sim.Engine.now), or allow it with a reason \
         where it really times the simulator itself"
        name
    else if Classify.is_raw_spawn key then
      emit c "domain-spawn" e.exp_loc
        "raw %s: all fan-out goes through Sim.Parallel so trials stay deterministic and \
         merge in order"
        name
    else if key = ("", "compare") then
      emit c "poly-compare" e.exp_loc
        "Stdlib.compare is polymorphic: it diverges on floats (nan) and mutable structure; \
         use the typed Int.compare / String.compare / Float.compare"
    else
      match Classify.hashtbl_order_head key with
      | Some fn when not (List.mem e.exp_loc c.sanctioned) ->
        emit c "hashtbl-order" e.exp_loc
          "Hashtbl.%s observes hash-bucket order; pipe a fold straight into List.sort \
           (fold ... [] |> List.sort cmp) or iterate a sorted key list"
          fn
      | _ -> ())

(* ---- applications ---- *)

let is_float (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* [Hashtbl.fold ...] appearing as the direct input of a sort *)
let sanction_fold c (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (head, _) -> (
    match head_key c head with
    | Some k when Classify.hashtbl_order_head k = Some "fold" ->
      c.sanctioned <- head.exp_loc :: c.sanctioned
    | _ -> ())
  | _ -> ()

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a | _ -> None)
    args

let labelled name args =
  List.find_map
    (function
      | Asttypes.Labelled l, Some (a : Typedtree.expression) when String.equal l name -> Some a
      | _ -> None)
    args

(* The parser folds [-1] and [-. 1.] into negative constants. *)
let is_negative_constant (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_int n) -> n < 0
  | Texp_constant (Const_float s) -> String.starts_with ~prefix:"-" s
  | _ -> false

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let check_metric_name c loc kind args =
  let name =
    List.fold_left
      (fun acc (a : Typedtree.expression) ->
        match a.exp_desc with Texp_constant (Const_string (s, _, _)) -> Some s | _ -> acc)
      None (positional_args args)
  in
  match name with
  | None -> ()
  | Some name ->
    if kind = "counter" && not (ends_with ~suffix:"_total" name) then
      emit c "counter-name" loc
        "counter %S should be named *_total (Prometheus convention; exporters sort by name)"
        name
    else if kind <> "counter" && ends_with ~suffix:"_total" name then
      emit c "counter-name" loc "%s %S must not use the counter suffix _total" kind name
    else if
      (kind = "summary" || kind = "histogram")
      && List.exists (fun s -> ends_with ~suffix:s name) [ "_sum"; "_count"; "_bucket" ]
    then
      emit c "counter-name" loc
        "%s %S ends in a reserved exporter suffix (_sum/_count/_bucket): the exposition \
         format appends those to the series itself"
        kind name

let check_span c loc args =
  let pident name =
    match labelled name args with
    | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> Some id
    | _ -> None
  in
  match (pident "start", pident "stop") with
  | Some a, Some b when Ident.same a b ->
    emit c "span-pairing" loc
      "span records ~start:%s ~stop:%s, a zero-width span; capture the start time before \
       the work and the stop time after"
      (Ident.name a) (Ident.name b)
  | Some a, _ when not (List.exists (Ident.same a) c.item_bound) ->
    emit c "span-pairing" loc
      "span start `%s` is not bound in this definition: begin/end are split across \
       functions; capture both sides of the interval in one place (or use with_span)"
      (Ident.name a)
  | _ -> ()

(* The typer turns [x |> f a] into [(f a) x], so a sort's input may sit
   one application out from the sort's own head. *)
let rec callee c (head : Typedtree.expression) =
  match head.exp_desc with Texp_apply (h, _) -> callee c h | _ -> head_key c head

let check_apply c (e : Typedtree.expression) head args =
  (match callee c head with
  | Some k when Classify.is_sort_head k -> List.iter (sanction_fold c) (positional_args args)
  | _ -> ());
  match head_key c head with
  | None -> ()
  | Some key -> (
    (match (key, positional_args args) with
    | ("", ("=" | "<>" as op)), a :: _ when is_float a.exp_type ->
      emit c "poly-compare" head.exp_loc
        "polymorphic %s at type float; use Float.equal (or compare against an epsilon)" op
    | _ -> ());
    let path = c.u.u_path in
    match Classify.telemetry_fn key with
    | Some ("counter" | "gauge" | "histogram" | "summary" as kind) ->
      check_metric_name c e.exp_loc kind args
    | Some ("add" | "addf") ->
      if List.exists is_negative_constant (positional_args args) then
        emit c "counter-monotonic" e.exp_loc
          "counters are monotonic: never add a negative delta (Telemetry.add raises on it at \
           runtime anyway)"
    | Some "create" when Rules.lib_only path ->
      emit c "sink-discipline" e.exp_loc
        "Telemetry.create inside lib/: sinks are created at entry points and threaded down; \
         per-trial sinks come from create_like"
    | Some "merge_into" when path <> "lib/sim/parallel.ml" ->
      emit c "sink-discipline" e.exp_loc
        "sink merging happens only in Sim.Parallel, in trial order, so exports stay \
         byte-identical across --jobs"
    | Some "span" -> check_span c e.exp_loc args
    | _ -> ())

(* ---- module-level values ---- *)

(* Same nesting discipline as pass A: descend into modules, never into
   expressions, so "module level" is exactly the state that outlives
   every trial. *)
let check_module_level c =
  let on_item ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          List.iter
            (fun (id, _, loc) ->
              let key = (prefix, Ident.name id) in
              (match Hashtbl.find_opt c.t.global_mutables key with
              | Some desc ->
                emit c "toplevel-mutable" loc
                  "module-level `%s` (%s) is shared by every Sim.Parallel trial domain; \
                   move it into the per-trial state it belongs to, or use Atomic if a \
                   cross-domain cell is really intended"
                  (Ident.name id) desc
              | None -> ());
              match Hashtbl.find_opt c.t.global_rngs key with
              | Some desc ->
                emit c "ctx-minted" loc
                  "module-level `%s` holds a %s; mint contexts at entry points and thread \
                   them down as parameters"
                  (Ident.name id) desc
              | None -> ())
            (Summary.binding_vars vb.vb_pat))
        vbs
    | _ -> ()
  in
  Summary.walk_module_level ~prefix:c.u.u_prefix ~on_item c.u.u_structure

(* ---- the per-unit walk ---- *)

let bound_idents (item : Typedtree.structure_item) =
  let bound = ref [] in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) -> bound := id :: !bound
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.Tast_iterator.structure_item it item;
  !bound

let run (t : Summary.tables) (u : Summary.unit_info) : Report.finding list =
  let c = { t; u; findings = ref []; sanctioned = []; item_bound = [] } in
  check_module_level c;
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> check_ident c e p
    | Texp_apply (head, args) -> check_apply c e head args
    | Texp_function { arg_label = Optional ("telemetry" | "faults" as l); _ } ->
      emit c "ctx-discipline" e.exp_loc
        "optional ?%s on a lib/ function: it rides in the Sim.Ctx the caller threads down \
         (Ctx.create ~%s / Ctx.with_telemetry), not in a per-constructor optional"
        l l
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun item ->
      c.item_bound <- bound_idents item;
      it.Tast_iterator.structure_item it item)
    u.u_structure.str_items;
  !(c.findings)
