(* Pass B, across functions: per-unit emission consulting the
   whole-tree tables (the site-local rules are in Checks).

   Spawn sites ([Sim.Parallel.map]/[map_ctx] incl. the
   [~seed_of] callback, [Domain.spawn], [Thread.create]) get a
   free-variable analysis of the spawned closure: every free name is
   classified by its *type* — Atomic is exempt, mutable roots fire
   escape-capture, RNG/engine/context fire rng-escape, local helper
   functions are expanded in place, and named toplevel functions are
   looked up in the pass-A summaries (escape-call when their transitive
   roots include module-level mutable state).

   Hashtbl-ordered callbacks get scanned for RNG draws (rng-order), and
   every application head is checked against the context rules:
   [Ctx.create] in lib/ fires ctx-minted, a call to a function that
   transitively mints fires ctx-launder.

   Known holes (DESIGN.md §9): a closure built by partial application
   is not expanded; a minter passed as a value (not applied) escapes
   ctx-launder; bound-variable collection is scope-insensitive over the
   whole closure, so shadowing can only hide findings, never invent
   them. *)

type ctxt = {
  t : Summary.tables;
  u : Summary.unit_info;
  local_defs : (Ident.t * Typedtree.expression) list;
  findings : Report.finding list ref;
}

let emit c name loc fmt = Rules.emit c.findings (Rules.get name) ~file:c.u.u_path loc fmt
let head_key c e = Summary.head_key c.t c.u e

(* ---- free-variable collection over a closure ---- *)

type occurrences = {
  mutable bound : Ident.t list;
  mutable locals : (Ident.t * Types.type_expr * Location.t) list;
  mutable keys : (Classify.key * Location.t) list;
}

let collect_occurrences c (root : Typedtree.expression) =
  let o = { bound = []; locals = []; keys = [] } in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> o.bound <- id :: o.bound
    | Typedtree.Tpat_alias (_, id, _) -> o.bound <- id :: o.bound
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match (Summary.key_of c.t c.u p, p) with
      | Some key, _ -> o.keys <- (key, e.exp_loc) :: o.keys
      | None, Path.Pident id -> o.locals <- (id, e.exp_type, e.exp_loc) :: o.locals
      | None, _ -> ())
    | Texp_for (id, _, _, _, _, _) -> o.bound <- id :: o.bound
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.Tast_iterator.expr it root;
  o

let find_local_def c id =
  List.find_map
    (fun (did, e) -> if Ident.same did id then Some e else None)
    c.local_defs

(* Free variables of [root], classified. Local helper functions are
   expanded recursively ([visited] breaks cycles); their captures count
   as captures of the spawned closure. *)
let rec analyze_closure c ~spawn ~visited (root : Typedtree.expression) =
  let o = collect_occurrences c root in
  let is_bound id = List.exists (Ident.same id) o.bound in
  let seen_locals = ref [] in
  List.iter
    (fun (id, ty, loc) ->
      if (not (is_bound id)) && not (List.exists (Ident.same id) !seen_locals)
      then begin
        seen_locals := id :: !seen_locals;
        let name = Ident.name id in
        match Classify.classify ~self:c.u.u_prefix c.t.records ty with
        | Classify.Atomic_ok | Classify.Neutral -> ()
        | Classify.Mutable desc ->
          emit c "escape-capture" loc
            "closure spawned via %s captures `%s` (%s) from the spawning \
             scope; every trial domain shares it — allocate per trial or use \
             Atomic"
            spawn name desc
        | Classify.Rngish desc ->
          emit c "rng-escape" loc
            "closure spawned via %s captures `%s` (%s) from the spawning \
             scope; the draw schedule would depend on domain interleaving — \
             fork a per-trial stream from the child ctx"
            spawn name desc
        | Classify.Func -> (
          match find_local_def c id with
          | Some body when not (List.exists (Ident.same id) visited) ->
            analyze_closure c ~spawn:(spawn ^ " (via local `" ^ name ^ "`)")
              ~visited:(id :: visited) body
          | _ -> ())
      end)
    (List.rev o.locals);
  let seen_keys = ref [] in
  List.iter
    (fun (key, loc) ->
      if not (List.mem key !seen_keys) then begin
        seen_keys := key :: !seen_keys;
        let name = Classify.key_to_string key in
        (match Hashtbl.find_opt c.t.global_mutables key with
        | Some desc ->
          emit c "escape-capture" loc
            "closure spawned via %s uses module-level `%s` (%s); state that \
             outlives the trial is shared by every domain"
            spawn name desc
        | None -> ());
        (match Hashtbl.find_opt c.t.global_rngs key with
        | Some desc ->
          emit c "rng-escape" loc
            "closure spawned via %s uses module-level `%s` (%s); a shared \
             stream makes the draw schedule depend on interleaving"
            spawn name desc
        | None -> ());
        match Hashtbl.find_opt c.t.functions key with
        | Some (s : Summary.fn_summary) -> (
          match s.roots with
          | (rkey, desc) :: _ ->
            emit c "escape-call" loc
              "closure spawned via %s calls `%s`, which transitively reaches \
               module-level `%s` (%s)"
              spawn name
              (Classify.key_to_string rkey)
              desc
          | [] -> ())
        | None -> ()
      end)
    (List.rev o.keys)

(* ---- spawn sites ---- *)

let rec strip_option_wrap (e : Typedtree.expression) =
  (* optional-labelled args arrive wrapped in [Some _] *)
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "Some"; _ }, [ inner ]) ->
    strip_option_wrap inner
  | _ -> e

let is_function_expr c (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> true
  | _ -> ( match Classify.classify ~self:c.u.u_prefix c.t.records e.exp_type with
    | Classify.Func -> true
    | _ -> false)

let analyze_spawned c ~spawn (e : Typedtree.expression) =
  let e = strip_option_wrap e in
  match e.exp_desc with
  | Texp_function _ -> analyze_closure c ~spawn ~visited:[] e
  | Texp_ident (p, _, _) -> (
    match (Summary.key_of c.t c.u p, p) with
    | Some key, _ -> (
      match Hashtbl.find_opt c.t.functions key with
      | Some { roots = (rkey, desc) :: _; _ } ->
        emit c "escape-call" e.exp_loc
          "`%s` runs in spawned domains (via %s) and transitively reaches \
           module-level `%s` (%s)"
          (Classify.key_to_string key)
          spawn
          (Classify.key_to_string rkey)
          desc
      | _ -> ())
    | None, Path.Pident id -> (
      (* a local let-bound closure: expand its definition *)
      match find_local_def c id with
      | Some body -> analyze_closure c ~spawn ~visited:[ id ] body
      | None -> ())
    | None, _ -> ())
  | _ -> () (* partial applications etc.: a known hole *)

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

let handle_spawn c key args =
  let spawn = Classify.key_to_string key in
  List.iter
    (fun (label, arg) ->
      match arg with
      | None -> ()
      | Some (a : Typedtree.expression) -> (
        match label_name label with
        | None -> if is_function_expr c a then analyze_spawned c ~spawn a
        | Some "seed_of" ->
          analyze_spawned c ~spawn:(spawn ^ " ~seed_of") a
        | Some _ -> () (* ~jobs, ~ctx, ~trials: not run in workers *)))
    args

(* ---- RNG under Hashtbl order ---- *)

let handle_hashtbl c fn args =
  let scan (body : Typedtree.expression) =
    let seen = ref [] in
    let expr it (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply (head, _) -> (
        match head_key c head with
        | Some k
          when Classify.is_rng_draw_head k
               && not (List.mem head.exp_loc !seen) ->
          seen := head.exp_loc :: !seen;
          emit c "rng-order" head.exp_loc
            "`%s` consumed inside `Hashtbl.%s`: the draw order follows \
             hash-bucket order, which varies with insertion history — fold \
             over sorted keys instead"
            (Classify.key_to_string k) fn
        | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.Tast_iterator.expr it body
  in
  List.iter
    (fun (label, arg) ->
      match (label, arg) with
      | Asttypes.Nolabel, Some (a : Typedtree.expression)
        when is_function_expr c a -> (
        match a.exp_desc with
        | Texp_function _ -> scan a
        | Texp_ident (Path.Pident id, _, _)
          when Summary.resolve_pident c.t c.u id = None -> (
          match find_local_def c id with Some body -> scan body | None -> ())
        | _ -> ())
      | _ -> ())
    args

(* ---- the per-unit walk ---- *)

let collect_local_defs (str : Typedtree.structure) =
  let defs = ref [] in
  let value_binding it (vb : Typedtree.value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> defs := (id, vb.vb_expr) :: !defs
    | _ -> ());
    Tast_iterator.default_iterator.value_binding it vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.Tast_iterator.structure it str;
  !defs

let run (t : Summary.tables) (u : Summary.unit_info) : Report.finding list =
  let c = { t; u; local_defs = collect_local_defs u.u_structure; findings = ref [] } in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (head, args) -> (
      match head_key c head with
      | Some key ->
        if Classify.is_spawn_head key then handle_spawn c key args;
        (match Classify.hashtbl_order_head key with
        | Some fn -> handle_hashtbl c fn args
        | None -> ());
        if Classify.is_ctx_create key then
          emit c "ctx-minted" head.exp_loc
            "Ctx.create in lib/: contexts are minted at entry points and \
             passed down (derive per-trial state with Ctx.fork / with_seed)"
        else (
          match Hashtbl.find_opt t.functions key with
          | Some (s : Summary.fn_summary) when s.mints ->
            emit c "ctx-launder" head.exp_loc
              "`%s` transitively applies Ctx.create; a wrapper does not \
               launder context provenance — accept a Ctx.t parameter instead"
              (Classify.key_to_string key)
          | _ -> ())
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.structure it u.u_structure;
  !(c.findings)
