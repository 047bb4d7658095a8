/* Sample program for `cashc --analyze`: sum2's pragma claims its two
 * pointer arguments never overlap, yet one load in the loop may read
 * through either of them, so the points-to facts cannot support the
 * claim.  Only reads go through the pointers, so the result is still
 * right; the unprovable-pragma lint reports the claim as a warning. */
int xs[128];
int ys[128];

int sum2(int* a, int* b, int n)
{
    #pragma independent a b
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        int* p = a;
        if (i & 1)
            p = b;
        acc += p[i];
    }
    return acc;
}

int run(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        xs[i] = 3 * i + 1;
        ys[i] = i;
    }
    return sum2(xs, ys, n);
}
