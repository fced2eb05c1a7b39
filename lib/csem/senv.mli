(** Scoped symbol tables for the object-level semantic analysis:
    variables/functions, typedefs, enum constants (per scope), and
    struct/union field layouts (per file). *)

type t

val create : unit -> t
val push_scope : t -> unit
val pop_scope : t -> unit
val with_scope : t -> (unit -> 'a) -> 'a

val snapshot : t -> t
(** A deep copy for transactional rollback; shares no mutable state. *)

val restore : t -> t -> unit
(** [restore t snap] resets [t] in place to the state captured by
    [snap].  The anonymous-tag counter is deliberately not rolled back
    so tags stay fresh after an aborted expansion. *)

val depth : t -> int
(** Number of open scopes (1 = just the global scope). *)

val fresh_tag : t -> string
(** A name for an anonymous struct/union/enum tag. *)

val anon_count : t -> int
(** Anonymous tags minted so far.  Monotonic — never rolled back — which
    is what lets the expansion cache refuse to store runs that minted
    tags (their pre-state can never recur). *)

val add_var : t -> string -> Ctype.t -> unit
val add_typedef : t -> string -> Ctype.t -> unit
val add_layout : t -> string -> (string * Ctype.t) list -> unit
val find_var : t -> string -> Ctype.t option
val find_typedef : t -> string -> Ctype.t option
val find_layout : t -> string -> (string * Ctype.t) list option

val field_type : t -> string -> string -> Ctype.t
(** Field type within a tagged struct/union; [Unknown] when unknown.
    Resolved through an interned-key index, so cost is independent of
    the struct's width. *)

val rehydrate : t -> t
(** Rebuild an environment that went through [Marshal] (a cache
    snapshot): re-interns every key (scopes, layouts, field indexes)
    into fresh tables, restoring the pointer identity [Intern.Tbl]
    lookups rely on.  The input is not mutated. *)

val digest : t -> string
(** Deterministic digest of the whole environment (scopes, bindings,
    layouts, anonymous-tag counter), for content-addressed
    expansion-cache keys. *)
