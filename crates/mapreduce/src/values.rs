//! Streaming value iterators handed to reducers and combiners.
//!
//! Reducers see the values of one key group as an iterator that lazily
//! deserializes from the merged run stream (reduce side) or from the sorted
//! record arena (combine side), so a group never has to be materialized —
//! this is what keeps SUFFIX-σ's reducer memory proportional to the stack
//! depth rather than the group size.

use crate::buffer::RecMeta;
use crate::error::{MrError, Result};
use crate::io::Writable;
use crate::merge::{DigestWords, MergeStream};
use std::marker::PhantomData;

enum Inner<'a> {
    /// Values of a sorted arena group (combiner path).
    Arena {
        data: &'a [u8],
        metas: std::slice::Iter<'a, RecMeta>,
    },
    /// Values streamed from the reduce-side merge, each decoded straight
    /// from the slice the merge lends and then popped.
    Stream {
        stream: &'a mut MergeStream,
        group_key: &'a [u8],
        group_digest: DigestWords,
        done: bool,
    },
}

/// Iterator over the deserialized values of one reduce group.
pub struct ValueIter<'a, V: Writable> {
    inner: Inner<'a>,
    consumed: u64,
    error: Option<MrError>,
    _marker: PhantomData<fn() -> V>,
}

fn decode<V: Writable>(bytes: &[u8], consumed: &mut u64, error: &mut Option<MrError>) -> Option<V> {
    match crate::io::from_bytes::<V>(bytes) {
        Ok(v) => {
            *consumed += 1;
            Some(v)
        }
        Err(e) => {
            *error = Some(e);
            None
        }
    }
}

impl<'a, V: Writable> ValueIter<'a, V> {
    pub(crate) fn arena(data: &'a [u8], metas: &'a [RecMeta]) -> Self {
        ValueIter {
            inner: Inner::Arena {
                data,
                metas: metas.iter(),
            },
            consumed: 0,
            error: None,
            _marker: PhantomData,
        }
    }

    /// Values of the group that starts at `stream`'s next record, whose
    /// key the caller copied into `group_key`.
    pub(crate) fn stream(stream: &'a mut MergeStream, group_key: &'a [u8]) -> Self {
        ValueIter {
            inner: Inner::Stream {
                group_digest: stream.peek_digest(),
                stream,
                group_key,
                done: false,
            },
            consumed: 0,
            error: None,
            _marker: PhantomData,
        }
    }

    /// Drain any unconsumed values (so the merge advances past the group)
    /// and report how many values the group contained in total.
    pub(crate) fn finish(mut self) -> Result<u64> {
        while self.next().is_some() {}
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.consumed),
        }
    }
}

impl<V: Writable> Iterator for ValueIter<'_, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        if self.error.is_some() {
            return None;
        }
        let ValueIter {
            inner,
            consumed,
            error,
            ..
        } = self;
        match inner {
            Inner::Arena { data, metas } => {
                let m = metas.next()?;
                decode::<V>(
                    &data[m.key_end as usize..m.val_end as usize],
                    consumed,
                    error,
                )
            }
            Inner::Stream {
                stream,
                group_key,
                group_digest,
                done,
            } => {
                if *done {
                    return None;
                }
                // Only records whose key equals the group key belong here.
                let Some(val) = stream.peek_in_group(group_key, *group_digest) else {
                    *done = true;
                    return None;
                };
                let value = decode::<V>(val, consumed, error);
                if let Err(e) = stream.pop() {
                    *error = Some(e);
                    return None;
                }
                value
            }
        }
    }
}
