(* Pass A: whole-tree summaries.

   One sweep over every loaded unit builds
     - the mutable-record table (any record type with a mutable field,
       plus manifest aliases of mutable types),
     - the set of module-level values of mutable / RNG-ish type,
     - a per-function summary: which module-level names it references
       and whether it applies [Ctx.create] directly,
     - each unit's module aliases, so a path through [module R = Random]
       keys as [Random],
   then a fixpoint over the call graph computes, per function, the
   module-level mutable roots transitively reachable from it and
   whether it transitively mints a [Ctx]. Pass B consults these: Checks
   for module-level state, Analysis when a spawned closure calls a named
   function and for the ctx-launder rule.

   Everything is keyed by (fully-dotted module path, name), with nested
   modules tracked, so same-named modules in different libraries never
   alias each other. *)

type unit_info = {
  u_modname : string; (* cmt_modname, e.g. "Sim__Parallel" *)
  u_prefix : string; (* dotted module prefix: "Sim.Parallel" *)
  u_path : string; (* normalised source path used for rule scoping *)
  u_structure : Typedtree.structure;
  u_source : string option; (* source text, for allow comments *)
}

type fn_summary = {
  fn_loc : Location.t;
  mutable fn_refs : Classify.key list; (* module-level names referenced *)
  mutable fn_mints : bool; (* applies Ctx.create itself *)
  mutable roots : (Classify.key * string) list; (* fixpoint: reachable roots *)
  mutable mints : bool; (* fixpoint: transitively mints a Ctx *)
}

type tables = {
  records : Classify.record_table;
  global_mutables : (Classify.key, string) Hashtbl.t;
  global_rngs : (Classify.key, string) Hashtbl.t;
  functions : (Classify.key, fn_summary) Hashtbl.t;
  (* per unit: the Idents of its module-level bindings, so Pident uses
     inside that unit resolve to keys by stamp, immune to shadowing *)
  toplevels : (string, (Ident.t * Classify.key) list) Hashtbl.t;
  (* per unit: module aliases ([module R = Random], [let module P =
     Sim.Parallel in]), expanded before a path becomes a key *)
  module_aliases : (string, (Ident.t * Path.t) list) Hashtbl.t;
}

(* ---- module-level walk, tracking the dotted prefix ---- *)

(* Visits only structure items of the unit and of nested modules —
   never expressions — so "module level" means exactly the state that
   outlives every trial. *)
let rec walk_module_level ~prefix ~on_item (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      on_item ~prefix item;
      match item.str_desc with
      | Tstr_module mb -> (
        match mb.mb_id with
        | Some id ->
          walk_module_expr ~prefix:(prefix ^ "." ^ Ident.name id) ~on_item
            mb.mb_expr
        | None -> ())
      | Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            match mb.mb_id with
            | Some id ->
              walk_module_expr ~prefix:(prefix ^ "." ^ Ident.name id) ~on_item
                mb.mb_expr
            | None -> ())
          mbs
      | Tstr_include incl -> walk_module_expr ~prefix ~on_item incl.incl_mod
      | _ -> ())
    str.str_items

and walk_module_expr ~prefix ~on_item (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> walk_module_level ~prefix ~on_item s
  | Tmod_constraint (me, _, _, _) -> walk_module_expr ~prefix ~on_item me
  | Tmod_functor (_, me) -> walk_module_expr ~prefix ~on_item me
  | _ -> ()

(* ---- sweep 1: record declarations with mutable fields ---- *)

let collect_records records (u : unit_info) =
  let on_item ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : Typedtree.type_declaration) ->
          match d.typ_kind with
          | Ttype_record labels -> (
            match
              List.find_opt
                (fun (l : Typedtree.label_declaration) -> l.ld_mutable = Mutable)
                labels
            with
            | Some l ->
              let name = Ident.name d.typ_id in
              Hashtbl.replace records (prefix, name)
                (Printf.sprintf "record %s.%s (mutable field `%s`)" prefix name
                   (Ident.name l.ld_id))
            | None -> ())
          | _ -> ())
        decls
    | _ -> ()
  in
  walk_module_level ~prefix:u.u_prefix ~on_item u.u_structure

let collect_aliases records (u : unit_info) =
  (* second sweep: [type t = int ref]-style manifests, classified once
     the record table is populated (alias-of-alias across units is a
     known hole; one level covers the tree) *)
  let on_item ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : Typedtree.type_declaration) ->
          match (d.typ_kind, d.typ_manifest) with
          | Ttype_abstract, Some core -> (
            match Classify.classify ~self:prefix records core.ctyp_type with
            | Classify.Mutable desc ->
              let name = Ident.name d.typ_id in
              if not (Hashtbl.mem records (prefix, name)) then
                Hashtbl.replace records (prefix, name)
                  (Printf.sprintf "%s.%s = %s" prefix name desc)
            | _ -> ())
          | _ -> ())
        decls
    | _ -> ()
  in
  walk_module_level ~prefix:u.u_prefix ~on_item u.u_structure

(* ---- sweep 3: module-level bindings ---- *)

let rec binding_vars (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> [ (id, p.pat_type, p.pat_loc) ]
  | Tpat_alias (sub, id, _) -> (id, p.pat_type, p.pat_loc) :: binding_vars sub
  | Tpat_tuple ps -> List.concat_map binding_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map binding_vars ps
  | Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, p) -> binding_vars p) fields
  | Tpat_array ps -> List.concat_map binding_vars ps
  | Tpat_or (a, b, _) -> binding_vars a @ binding_vars b
  | Tpat_lazy p -> binding_vars p
  | _ -> []

let collect_globals t (u : unit_info) =
  let tops = ref [] in
  let on_item ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          List.iter
            (fun (id, ty, loc) ->
              let key = (prefix, Ident.name id) in
              tops := (id, key) :: !tops;
              match Classify.classify ~self:prefix t.records ty with
              | Classify.Mutable desc -> Hashtbl.replace t.global_mutables key desc
              | Classify.Rngish desc -> Hashtbl.replace t.global_rngs key desc
              | Classify.Func ->
                Hashtbl.replace t.functions key
                  { fn_loc = loc; fn_refs = []; fn_mints = false; roots = [];
                    mints = false }
              | _ -> ())
            (binding_vars vb.vb_pat))
        vbs
    | _ -> ()
  in
  walk_module_level ~prefix:u.u_prefix ~on_item u.u_structure;
  Hashtbl.replace t.toplevels u.u_modname !tops

let collect_module_aliases t (u : unit_info) =
  let aliases = ref [] in
  let rec target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  let add id me =
    match (id, target me) with
    | Some id, Some p -> aliases := (id, p) :: !aliases
    | _ -> ()
  in
  let module_binding it (mb : Typedtree.module_binding) =
    add mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding it mb
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with Texp_letmodule (id, _, _, me, _) -> add id me | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.Tast_iterator.structure it u.u_structure;
  Hashtbl.replace t.module_aliases u.u_modname !aliases

(* ---- sweep 4: per-function references ---- *)

let resolve_pident t (u : unit_info) id =
  match Hashtbl.find_opt t.toplevels u.u_modname with
  | None -> None
  | Some tops ->
    List.find_map
      (fun (tid, key) -> if Ident.same tid id then Some key else None)
      tops

let rec expand_aliases t (u : unit_info) (p : Path.t) =
  match p with
  | Path.Pident id -> (
    let aliases = Option.value ~default:[] (Hashtbl.find_opt t.module_aliases u.u_modname) in
    match List.find_map (fun (aid, q) -> if Ident.same aid id then Some q else None) aliases with
    | Some q -> expand_aliases t u q
    | None -> p)
  | Path.Pdot (q, s) -> Path.Pdot (expand_aliases t u q, s)
  | _ -> p

(* The key a value path refers to: a unit's own module-level binding by
   stamp, anything else by its alias-expanded path; [None] for locals. *)
let key_of t (u : unit_info) (p : Path.t) =
  match p with
  | Path.Pident id -> resolve_pident t u id
  | _ -> Some (Classify.key_of_path (expand_aliases t u p))

let head_key t u (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> key_of t u p | _ -> None

let collect_refs t (u : unit_info) =
  let current = ref None in
  let expr it (e : Typedtree.expression) =
    (match (!current, e.exp_desc) with
    | Some fn, Texp_ident (p, _, _) -> (
      match key_of t u p with
      | Some key ->
        if Classify.is_ctx_create key then fn.fn_mints <- true;
        if not (List.mem key fn.fn_refs) then fn.fn_refs <- key :: fn.fn_refs
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let structure_item it (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let saved = !current in
          (match binding_vars vb.vb_pat with
          | [ (id, _, _) ] -> (
            match resolve_pident t u id with
            | Some key -> current := Hashtbl.find_opt t.functions key
            | None -> ())
          | _ -> ());
          it.Tast_iterator.expr it vb.vb_expr;
          current := saved)
        vbs
    | _ -> Tast_iterator.default_iterator.structure_item it item
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.Tast_iterator.structure it u.u_structure

(* ---- fixpoint ---- *)

let fixpoint t =
  let changed = ref true in
  let add_root fn r =
    if not (List.mem r fn.roots) then begin
      fn.roots <- r :: fn.roots;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ fn ->
        if fn.fn_mints && not fn.mints then begin
          fn.mints <- true;
          changed := true
        end;
        List.iter
          (fun key ->
            (match Hashtbl.find_opt t.global_mutables key with
            | Some desc -> add_root fn (key, desc)
            | None -> ());
            (match Hashtbl.find_opt t.global_rngs key with
            | Some desc -> add_root fn (key, desc)
            | None -> ());
            match Hashtbl.find_opt t.functions key with
            | Some callee ->
              if callee.mints && not fn.mints then begin
                fn.mints <- true;
                changed := true
              end;
              List.iter (add_root fn) callee.roots
            | None -> ())
          fn.fn_refs)
      t.functions
  done;
  Hashtbl.iter (fun _ fn -> fn.roots <- List.sort compare fn.roots) t.functions

let build (units : unit_info list) =
  let t =
    {
      records = Hashtbl.create 64;
      global_mutables = Hashtbl.create 64;
      global_rngs = Hashtbl.create 16;
      functions = Hashtbl.create 256;
      toplevels = Hashtbl.create 64;
      module_aliases = Hashtbl.create 64;
    }
  in
  List.iter (fun u -> collect_records t.records u) units;
  List.iter (fun u -> collect_aliases t.records u) units;
  List.iter (collect_globals t) units;
  List.iter (collect_module_aliases t) units;
  List.iter (collect_refs t) units;
  fixpoint t;
  t
