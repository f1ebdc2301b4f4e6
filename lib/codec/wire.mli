(** Binary serialization of {!Value.t}.

    Self-describing, length-safe format: each node is a one-byte tag followed
    by its payload; variable-length integers use LEB128.  Streams start with a
    4-byte magic and a format version so that images written by one "kernel"
    can be validated by another (the paper's portability requirement). *)

val format_version : int

val encode : Value.t -> string
(** Serialize with magic + version header. *)

val header_size : int
(** Bytes of magic and version in front of every {!encode}d stream. *)

val decode : string -> Value.t
(** @raise Value.Decode_error on corrupt input, bad magic, or version
    mismatch. *)

val decode_fields : string -> string list -> Value.t
(** [decode_fields s keys] is [decode s] restricted to the top-level record
    fields named in [keys], in record order; a stream whose top level is not
    a record yields [Assoc []].  The other fields are checked but not built,
    so reading a few small fields of a large image costs a walk of its bytes
    and no allocation for the rest.  Raises exactly when {!decode} does.
    @raise Value.Decode_error on any input {!decode} rejects. *)

val encode_raw : Buffer.t -> Value.t -> unit
(** Headerless encode, appended to [buf] (used for nested streams). *)

val decode_raw : string -> int -> Value.t * int
(** [decode_raw s off] decodes one headerless value at [off]; returns the
    value and the offset just past it. *)

val encoded_size : Value.t -> int
(** Exact encoded size in bytes (without header), computed without
    encoding. *)
