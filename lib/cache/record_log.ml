let magic_len = 11
let fp_len = 16
let header_len = magic_len + fp_len
let frame_len = 4 + fp_len (* payload length + payload digest *)

type bad_header = Short_header | Bad_magic | Bad_fingerprint
type damage = Torn | Corrupt

type scan = {
  records : int;
  good_end : int;
  file_len : int;
  damage : damage option;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let create ?(fsync = true) ~magic ~fingerprint path =
  assert (String.length magic = magic_len && String.length fingerprint = fp_len);
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  match
    write_all fd (magic ^ fingerprint);
    if fsync then Unix.fsync fd
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with _ -> ());
    raise e

let open_append path = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644

let append ~before ~mid ~fsync fd payload =
  let frame = Bytes.create frame_len in
  Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
  Bytes.blit_string (Digest.string payload) 0 frame 4 fp_len;
  before ();
  write_all fd (Bytes.unsafe_to_string frame);
  (* A crash here leaves a frame with no payload behind it: the torn
     tail the next scan reports. *)
  mid ();
  write_all fd payload;
  if fsync then Unix.fsync fd

let check_header ~magic ~fingerprint ic file_len =
  if file_len < header_len then Error Short_header
  else
    let h = really_input_string ic header_len in
    if not (String.equal (String.sub h 0 magic_len) magic) then Error Bad_magic
    else if not (String.equal (String.sub h magic_len fp_len) fingerprint)
    then Error Bad_fingerprint
    else Ok ()

(* The length is checked against what is left of the file before the
   payload is allocated: a frame or payload that runs past the end is
   a torn tail, never a huge allocation. A file that shrinks while it
   is scanned reads as torn too. *)
let scan_records ic file_len deliver =
  let records = ref 0 in
  let good_end = ref header_len in
  let frame = Bytes.create frame_len in
  let damage = ref None in
  while Option.is_none !damage && !good_end < file_len do
    let left = file_len - !good_end in
    if left < frame_len then damage := Some Torn
    else
      match
        really_input ic frame 0 frame_len;
        let len = Int32.to_int (Bytes.get_int32_be frame 0) land 0xFFFF_FFFF in
        if len > left - frame_len then None
        else Some (len, really_input_string ic len)
      with
      | exception End_of_file | None -> damage := Some Torn
      | Some (len, payload) ->
        if
          not
            (String.equal (Digest.string payload)
               (Bytes.sub_string frame 4 fp_len))
          || not (deliver payload)
        then damage := Some Corrupt
        else begin
          incr records;
          good_end := !good_end + frame_len + len
        end
  done;
  { records = !records; good_end = !good_end; file_len; damage = !damage }

let read ~magic ~fingerprint path deliver =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_len = in_channel_length ic in
      match check_header ~magic ~fingerprint ic file_len with
      | Error _ as e -> e
      | Ok () -> Ok (scan_records ic file_len deliver))

let truncate path scan = Unix.truncate path scan.good_end
