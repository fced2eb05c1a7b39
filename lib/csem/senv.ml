(** Scoped symbol tables for the object-level semantic analysis.

    Tracks, per scope: variables and functions (name → type), typedefs
    (name → type), enum constants (name → enum type), and — globally,
    since C tags share one file-scope namespace per kind in our subset —
    struct/union field layouts.

    All tables are keyed by interned symbols ({!Ms2_support.Intern}):
    the analyzer probes these environments for every identifier and
    member access it sees, so lookups resolve with a cached hash and
    pointer-equality bucket scans.  Field layouts keep their declared
    order (the public [(string * Ctype.t) list] view) alongside an
    interned-key index so [field_type] is a hash probe rather than an
    association-list walk — wide structs made the linear scan a real
    cost. *)

module Intern = Ms2_support.Intern

type scope = {
  vars : Ctype.t Intern.Tbl.t;
  typedefs : Ctype.t Intern.Tbl.t;
}

(** A struct/union layout: declared field order plus a lookup index. *)
type layout = {
  fields : (string * Ctype.t) list;  (** declared order, public view *)
  index : Ctype.t Intern.Tbl.t;  (** field symbol → type *)
}

type t = {
  mutable scopes : scope list;
  layouts : layout Intern.Tbl.t;  (** struct/union tag → field layout *)
  mutable anon_counter : int;  (** names for anonymous tags *)
}

let new_scope () =
  { vars = Intern.Tbl.create 16; typedefs = Intern.Tbl.create 4 }

let create () =
  {
    scopes = [ new_scope () ];
    layouts = Intern.Tbl.create 16;
    anon_counter = 0;
  }

let push_scope t = t.scopes <- new_scope () :: t.scopes

let pop_scope t =
  match t.scopes with
  | [] | [ _ ] -> invalid_arg "Senv.pop_scope: global scope"
  | _ :: rest -> t.scopes <- rest

let with_scope t f =
  push_scope t;
  Fun.protect ~finally:(fun () -> pop_scope t) f

let copy_scope s =
  { vars = Intern.Tbl.copy s.vars; typedefs = Intern.Tbl.copy s.typedefs }

(** A deep snapshot for transactional rollback.  [anon_counter] is
    captured but deliberately not restored: anonymous-tag names must stay
    fresh across a rollback or a re-expansion could collide with layouts
    recorded by the aborted attempt.  Layout records are immutable once
    built, so sharing them between snapshot and original is safe. *)
let snapshot t : t =
  {
    scopes = List.map copy_scope t.scopes;
    layouts = Intern.Tbl.copy t.layouts;
    anon_counter = t.anon_counter;
  }

(** Reset [t] in place to [snap] (which is never mutated).  In place
    because the engine hands the same [t] to every expansion. *)
let restore t (snap : t) =
  t.scopes <- List.map copy_scope snap.scopes;
  Intern.Tbl.reset t.layouts;
  Intern.Tbl.iter (fun tag layout -> Intern.Tbl.replace t.layouts tag layout)
    snap.layouts

let depth t = List.length t.scopes

let fresh_tag t =
  t.anon_counter <- t.anon_counter + 1;
  Printf.sprintf "<anonymous-%d>" t.anon_counter

let anon_count t = t.anon_counter

let add_var t name ty =
  match t.scopes with
  | scope :: _ -> Intern.Tbl.replace scope.vars (Intern.intern name) ty
  | [] -> assert false

let add_typedef t name ty =
  match t.scopes with
  | scope :: _ -> Intern.Tbl.replace scope.typedefs (Intern.intern name) ty
  | [] -> assert false

let add_layout t tag fields =
  let index = Intern.Tbl.create (List.length fields * 2) in
  List.iter
    (fun (name, ty) ->
      let sym = Intern.intern name in
      (* first declaration of a duplicated field name wins, matching the
         old [List.assoc_opt] front-to-back resolution *)
      if not (Intern.Tbl.mem index sym) then Intern.Tbl.replace index sym ty)
    fields;
  Intern.Tbl.replace t.layouts (Intern.intern tag) { fields; index }

let find tbl_of t name =
  let sym = Intern.intern name in
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Intern.Tbl.find_opt (tbl_of scope) sym with
        | Some v -> Some v
        | None -> go rest)
  in
  go t.scopes

let find_var t name = find (fun s -> s.vars) t name
let find_typedef t name = find (fun s -> s.typedefs) t name

let find_layout t tag =
  match Intern.Tbl.find_opt t.layouts (Intern.intern tag) with
  | Some layout -> Some layout.fields
  | None -> None

(** Field type within a struct/union, [Unknown] when the layout (or the
    field) is unknown.  One interned-key probe, independent of width. *)
let field_type t tag field : Ctype.t =
  match Intern.Tbl.find_opt t.layouts (Intern.intern tag) with
  | None -> Ctype.Unknown
  | Some layout -> (
      match Intern.Tbl.find_opt layout.index (Intern.intern field) with
      | Some ty -> ty
      | None -> Ctype.Unknown)

(** Rebuild an environment that went through [Marshal] (a cache
    snapshot): unmarshalled symbols keep their spelling but lose pointer
    identity with the live interner, and [Intern.Tbl] compares keys by
    pointer.  Re-intern every key — scope vars/typedefs, the layout
    table, and each layout's field index.  [Ctype.t] values and the
    ordered field lists are pure data and survive marshalling as-is. *)
let rehydrate (t : t) : t =
  let rebuild tbl =
    let fresh = Intern.Tbl.create (max 4 (Intern.Tbl.length tbl)) in
    Intern.Tbl.iter
      (fun sym v -> Intern.Tbl.replace fresh (Intern.intern (Intern.str sym)) v)
      tbl;
    fresh
  in
  let layouts = Intern.Tbl.create (max 16 (Intern.Tbl.length t.layouts)) in
  Intern.Tbl.iter
    (fun tag layout ->
      Intern.Tbl.replace layouts
        (Intern.intern (Intern.str tag))
        { fields = layout.fields; index = rebuild layout.index })
    t.layouts;
  {
    scopes =
      List.map
        (fun s -> { vars = rebuild s.vars; typedefs = rebuild s.typedefs })
        t.scopes;
    layouts;
    anon_counter = t.anon_counter;
  }

(** A deterministic digest of the whole environment (scope structure,
    bindings, layouts), for content-addressed cache keys.  The
    anonymous-tag counter is included: it feeds [fresh_tag], so two
    states differing only in the counter can still produce different
    output.  [Ctype.t] is pure data, so marshalling is faithful. *)
let digest (t : t) : string =
  let b = Buffer.create 256 in
  let add_tbl label tbl =
    Buffer.add_string b label;
    Intern.Tbl.fold (fun sym v acc -> (Intern.str sym, v) :: acc) tbl []
    |> List.sort compare
    |> List.iter (fun (name, ty) ->
           Buffer.add_string b name;
           Buffer.add_char b '=';
           Buffer.add_string b (Marshal.to_string (ty : Ctype.t) []))
  in
  List.iter
    (fun scope ->
      add_tbl "(vars" scope.vars;
      add_tbl ")(typedefs" scope.typedefs;
      Buffer.add_char b ')')
    t.scopes;
  Buffer.add_string b "(layouts";
  Intern.Tbl.fold
    (fun tag layout acc -> (Intern.str tag, layout.fields) :: acc)
    t.layouts []
  |> List.sort compare
  |> List.iter (fun (tag, fields) ->
         Buffer.add_string b tag;
         Buffer.add_char b '=';
         Buffer.add_string b
           (Marshal.to_string (fields : (string * Ctype.t) list) []));
  Buffer.add_char b ')';
  Buffer.add_string b (string_of_int t.anon_counter);
  Digest.string (Buffer.contents b)
