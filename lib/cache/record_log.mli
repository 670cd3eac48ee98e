(** Append-only logs of digest-framed records: the one on-disk format
    under the durable memo store ({!Store}) and the stream journal
    ([Dda_engine.Stream]).

    {v
    magic           11 bytes, names the kind of log
    fingerprint     16 bytes, binds the file to what wrote it
    then per record:
      length         4 bytes, big-endian payload length
      digest        16 bytes, MD5 of the payload
      payload
    v}

    Appends use raw [Unix.write] (no userspace buffering), so a kill
    at any byte leaves a valid prefix followed by at most one {!Torn}
    record. This module only reports damage; dropping it, truncating
    it or refusing the file is the caller's policy. *)

type bad_header =
  | Short_header  (** shorter than the 27-byte header *)
  | Bad_magic
  | Bad_fingerprint

(** The first damage a scan meets, which ends it. *)
type damage =
  | Torn  (** a frame or payload runs past end of file *)
  | Corrupt
      (** a complete record whose digest fails, or whose payload the
          reader could not decode *)

type scan = {
  records : int;  (** intact payloads delivered, in order *)
  good_end : int;  (** byte offset just past the last of them *)
  file_len : int;
  damage : damage option;  (** [None]: [good_end = file_len] *)
}

val read :
  magic:string ->
  fingerprint:string ->
  string ->
  (string -> bool) ->
  (scan, bad_header) result
(** [read ~magic ~fingerprint path deliver] checks the header, then
    hands every intact payload to [deliver] in file order, one record
    in memory at a time. [deliver] returns [false] for a payload it
    cannot decode, which ends the scan as {!Corrupt}; its exceptions
    propagate.
    @raise Sys_error when the file cannot be opened. *)

val truncate : string -> scan -> unit
(** Cut the file at [good_end]. @raise Unix.Unix_error on failure. *)

val create :
  ?fsync:bool -> magic:string -> fingerprint:string -> string -> Unix.file_descr
(** Create or truncate the log at the path and write its header
    (11-byte magic, 16-byte fingerprint), fsynced unless [fsync] is
    [false]. @raise Unix.Unix_error on failure. *)

val open_append : string -> Unix.file_descr
(** @raise Unix.Unix_error on failure. *)

val append :
  before:(unit -> unit) ->
  mid:(unit -> unit) ->
  fsync:bool ->
  Unix.file_descr ->
  string ->
  unit
(** Append one record: [before ()], the frame in one write, [mid ()],
    the payload in a second write, then an fsync when [fsync]. The
    hooks are the caller's failpoint sites; a kill at [mid] leaves a
    {!Torn} tail. @raise Unix.Unix_error when a write or fsync fails. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string with raw [Unix.write], looping over short
    writes. Exceptions from [Unix.write] propagate. *)
