(** CRC-32 (IEEE 802.3) checksums.

    Flash log sectors and system-log sectors carry a checksum so that
    recovery can detect torn or corrupted sectors instead of replaying
    garbage. *)

val crc32 : ?init:int -> bytes -> pos:int -> len:int -> int
(** Checksum of [len] bytes starting at [pos], as a non-negative int
    (32-bit range). [init] chains computations: pass the checksum of the
    preceding bytes (only its low 32 bits are used). *)

val crc32_bytes : bytes -> int
(** Checksum of a whole byte string. *)
