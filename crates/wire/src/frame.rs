//! Length-prefixed JSON framing.
//!
//! Every message is a big-endian `u32` byte length followed by that many
//! bytes of JSON. Frames are capped at [`MAX_FRAME`] to keep a misbehaving
//! peer from ballooning server memory.

use std::io::{self, Read, Write};

use oasis_json::{FromJson, ToJson};

use crate::error::WireError;

/// Maximum frame payload size (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Serialises `message` into one frame: header and payload in one buffer,
/// so a frame is one `write` and, with `TCP_NODELAY`, one segment.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for oversized messages.
pub fn encode_frame<M: ToJson>(message: &M) -> Result<Vec<u8>, WireError> {
    // Written as a `String` behind four placeholder bytes that become
    // the length. Most frames fit the first allocation.
    let mut frame = String::with_capacity(512);
    frame.push_str("\0\0\0\0");
    message.write_json(&mut frame);
    let mut frame = frame.into_bytes();
    let len = frame.len() - 4;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            got: len,
            limit: MAX_FRAME,
        });
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(frame)
}

/// Serialises `message` and writes one frame.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for oversized messages, [`WireError::Io`]
/// for socket failures.
pub fn write_frame<W, M>(writer: &mut W, message: &M) -> Result<(), WireError>
where
    W: Write,
    M: ToJson,
{
    writer.write_all(&encode_frame(message)?)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame and deserialises it. Returns `Ok(None)` on a clean
/// end-of-stream at a frame boundary.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`], [`WireError::Malformed`],
/// [`WireError::Closed`] (EOF mid-frame), or [`WireError::Io`].
pub fn read_frame<R, M>(reader: &mut R) -> Result<Option<M>, WireError>
where
    R: Read,
    M: FromJson,
{
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            got: len,
            limit: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Closed,
            _ => WireError::Io(e),
        })?;
    decode_payload(&payload).map(Some)
}

fn decode_payload<M: FromJson>(payload: &[u8]) -> Result<M, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| WireError::Malformed(oasis_json::JsonError::new("frame is not utf-8")))?;
    Ok(oasis_json::from_str(text)?)
}

/// Incremental frame decoder for non-blocking reads: bytes go in as the
/// socket yields them, complete frames come out. Holds no allocation while
/// empty, so an idle connection costs nothing.
#[derive(Default)]
pub(crate) struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Whether no byte of an unfinished frame is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// One `read` from `reader` straight into the buffer, asking for the
    /// rest of the frame under way once its header is here, and for at
    /// least `chunk` bytes either way. Returns the count read; 0 is the
    /// end of the stream.
    ///
    /// # Errors
    ///
    /// The reader's error; the buffered bytes stay as they were.
    pub(crate) fn read_from(&mut self, reader: &mut impl Read, chunk: usize) -> io::Result<usize> {
        let rest = self.0.first_chunk::<4>().map_or(0, |header| {
            let end = 4 + (u32::from_be_bytes(*header) as usize).min(MAX_FRAME);
            end.saturating_sub(self.0.len())
        });
        let start = self.0.len();
        self.0.resize(start + rest.max(chunk), 0);
        let read = reader.read(&mut self.0[start..]);
        self.0.truncate(start + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Removes and decodes the first frame if all of it has arrived. An
    /// oversized length is refused from its four header bytes, whatever
    /// follows them.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] or [`WireError::Malformed`]; the
    /// stream cannot be resynchronised after either.
    pub(crate) fn next_frame<M: FromJson>(&mut self) -> Result<Option<M>, WireError> {
        let mut rest = self.0.as_slice();
        let message = take_frame(&mut rest)?;
        if message.is_some() {
            if rest.is_empty() {
                self.0 = Vec::new();
            } else {
                let used = self.0.len() - rest.len();
                self.0.drain(..used);
            }
        }
        Ok(message)
    }

    /// The next frame of a stream whose unread bytes are this buffer's
    /// followed by `fresh`, the bytes of the latest read. While nothing is
    /// buffered, a frame is decoded straight from `fresh`: only what is
    /// left over (an incomplete frame, or the frames behind the first) is
    /// copied in.
    ///
    /// # Errors
    ///
    /// As [`next_frame`](Self::next_frame).
    pub(crate) fn next_frame_after<M: FromJson>(
        &mut self,
        mut fresh: &[u8],
    ) -> Result<Option<M>, WireError> {
        if self.is_empty() {
            if let Some(message) = take_frame(&mut fresh)? {
                self.extend(fresh);
                return Ok(Some(message));
            }
        }
        self.extend(fresh);
        self.next_frame()
    }
}

/// Decodes the first frame of `bytes` and moves `bytes` past it, if all
/// of it is there. An oversized length is refused from its four header
/// bytes, whatever follows them.
fn take_frame<M: FromJson>(bytes: &mut &[u8]) -> Result<Option<M>, WireError> {
    let Some(header) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            got: len,
            limit: MAX_FRAME,
        });
    }
    let Some(payload) = bytes.get(4..4 + len) else {
        return Ok(None);
    };
    let message = decode_payload(payload)?;
    *bytes = &bytes[4 + len..];
    Ok(Some(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![1u32, 2, 3]).unwrap();
        let got: Option<Vec<u32>> = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, Some(vec![1, 2, 3]));
    }

    #[test]
    fn multiple_frames_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"first".to_string()).unwrap();
        write_frame(&mut buf, &"second".to_string()).unwrap();
        let mut reader = buf.as_slice();
        let one: Option<String> = read_frame(&mut reader).unwrap();
        let two: Option<String> = read_frame(&mut reader).unwrap();
        assert_eq!(one.as_deref(), Some("first"));
        assert_eq!(two.as_deref(), Some("second"));
    }

    #[test]
    fn clean_eof_returns_none() {
        let empty: &[u8] = &[];
        let got: Option<String> = read_frame(&mut { empty }).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn eof_mid_frame_is_closed_error() {
        // Announce 100 bytes but send only 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame::<_, String>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Closed));
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame::<_, String>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn frame_is_one_write() {
        struct CountingWriter(Vec<Vec<u8>>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = CountingWriter(Vec::new());
        write_frame(&mut writer, &"héllo".to_string()).unwrap();
        assert_eq!(writer.0.len(), 1, "header and payload leave together");
        let got: Option<String> = read_frame(&mut writer.0[0].as_slice()).unwrap();
        assert_eq!(got.as_deref(), Some("héllo"));
    }

    #[test]
    fn frame_buf_yields_only_complete_frames_and_releases_its_buffer() {
        let mut wire = encode_frame(&"first".to_string()).unwrap();
        wire.extend(encode_frame(&vec![1u32, 2]).unwrap());
        let mut buf = FrameBuf::default();
        // One byte at a time: nothing comes out before a frame's last byte.
        let mut out = Vec::new();
        for byte in &wire[..wire.len() - 1] {
            buf.extend(&[*byte]);
            if let Some(s) = buf.next_frame::<String>().unwrap() {
                out.push(s);
                assert!(buf.is_empty());
                assert_eq!(buf.0.capacity(), 0, "drained buffer is released");
            }
        }
        assert_eq!(out, ["first"]);
        assert!(!buf.is_empty());
        buf.extend(&wire[wire.len() - 1..]);
        // Two frames in one read: both come out, in order.
        buf.extend(&wire);
        assert_eq!(buf.next_frame::<Vec<u32>>().unwrap(), Some(vec![1, 2]));
        assert_eq!(
            buf.next_frame::<String>().unwrap().as_deref(),
            Some("first")
        );
        assert_eq!(buf.next_frame::<Vec<u32>>().unwrap(), Some(vec![1, 2]));
        assert!(buf.next_frame::<String>().unwrap().is_none() && buf.is_empty());
    }

    #[test]
    fn frames_of_a_read_are_decoded_in_place_and_only_the_rest_is_buffered() {
        let first = encode_frame(&"first".to_string()).unwrap();
        let second = encode_frame(&"second".to_string()).unwrap();
        let mut read = first.clone();
        read.extend(&second[..5]);
        let mut buf = FrameBuf::default();
        // Nothing buffered: the first frame comes from the read itself, and
        // only the start of the second is kept.
        let got = buf.next_frame_after::<String>(&read).unwrap();
        assert_eq!(got.as_deref(), Some("first"));
        assert_eq!(buf.0, second[..5]);
        // Buffered bytes come first: the next read completes them.
        let got = buf.next_frame_after::<String>(&second[5..]).unwrap();
        assert_eq!(got.as_deref(), Some("second"));
        assert_eq!(buf.0.capacity(), 0, "drained buffer is released");
        // A whole frame alone in a read leaves nothing behind.
        let got = buf.next_frame_after::<String>(&first).unwrap();
        assert_eq!(got.as_deref(), Some("first"));
        assert_eq!(buf.0.capacity(), 0, "nothing was buffered");
        assert!(buf.next_frame_after::<String>(&[]).unwrap().is_none());
        assert!(matches!(
            buf.next_frame_after::<String>(&u32::MAX.to_be_bytes()),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn frame_buf_refuses_oversized_header_and_garbage() {
        let mut buf = FrameBuf::default();
        buf.extend(&u32::MAX.to_be_bytes());
        let err = buf.next_frame::<String>().unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
        let mut buf = FrameBuf::default();
        buf.extend(&3u32.to_be_bytes());
        buf.extend(b"{{{");
        let err = buf.next_frame::<String>().unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn garbage_payload_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        let err = read_frame::<_, String>(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }
}
